"""Hierarchical vehicle dynamics.

Three decision layers act on every vehicle each time step:

* strategic: where to go next (a fixed destination list or random direction
  choices at junctions), resolved into routes by :mod:`vehsim.routing`;
* tactical: lane selection with the MOBIL incentive/safety criterion;
* operational: car-following acceleration with the Intelligent Driver Model,
  where yellow/red signals and the trip's final stop appear as standing
  obstructions at the stop line.

Positions are vehicle centers measured along the direction of travel of the
current directed segment.  The step update is ballistic with a stopping clamp:
a vehicle that would reach zero speed inside the step advances exactly its
kinematic stopping distance and never rolls backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import routing
from .osm import RoadGraph, SegmentRef, signal_phase
from .rng import substream

VEHICLE_LENGTH = 5.0  # m
LANE_CHANGE_COOLDOWN = 2.0  # s between lane changes of one vehicle
PERCEPTION_HORIZON = 500.0  # m lookahead for leaders and signals
SPEED_FACTOR_SPREAD = 0.2  # speed factor drawn once from U[0.8, 1.2]
_GAP_FLOOR = 0.01  # m fed to the model when vehicles overlap (collision recorded)
_ARRIVAL_SPEED = 0.05  # m/s below which a final-leg vehicle can register arrival


class SimulationError(Exception):
    """Unrecoverable scenario state (stranded vehicles, broken routes)."""


class StrandedError(SimulationError):
    """A vehicle reached a node with no outgoing segment."""


class PlacementError(ValueError):
    """A spawn placement could not be resolved; ``key`` names the failing field."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass(frozen=True)
class IdmParams:
    """Intelligent Driver Model parameters (SI units)."""

    v0: float = 13.89  # desired speed, m/s
    T: float = 1.5  # desired time headway, s
    a_max: float = 1.4  # maximum acceleration, m/s^2
    b_comf: float = 2.0  # comfortable deceleration, m/s^2
    delta: float = 4.0  # free-acceleration exponent
    s0: float = 2.0  # standstill minimum net gap, m

    def __post_init__(self) -> None:
        for name in ("v0", "T", "a_max", "b_comf", "delta", "s0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"IdmParams.{name} must be > 0")


@dataclass(frozen=True)
class MobilParams:
    """MOBIL lane-change parameters."""

    p: float = 0.5  # politeness factor
    delta_a_th: float = 0.2  # incentive threshold, m/s^2
    b_safe: float = 4.0  # maximum braking imposed on the new follower, m/s^2


def idm_acceleration(v: float, v0_eff: float, delta_v: float, gap: float, params: IdmParams) -> float:
    """IDM longitudinal acceleration.

    ``delta_v`` is own minus leader speed (positive while approaching);
    ``gap`` is the net bumper-to-bumper distance and may be ``math.inf`` for a
    free road.  Non-positive gaps are a contract violation: a collision should
    have been detected upstream.
    """
    if gap <= 0:
        raise ValueError(f"non-positive gap {gap!r}: collision not handled upstream")
    if v < 0:
        raise ValueError(f"negative speed {v!r}")
    free = params.a_max * (1.0 - (v / v0_eff) ** params.delta)
    if math.isinf(gap):
        return free
    s_star = params.s0 + v * params.T + v * delta_v / (2.0 * math.sqrt(params.a_max * params.b_comf))
    return free - params.a_max * (s_star / gap) ** 2


def equilibrium_gap(v: float, v0_eff: float, params: IdmParams) -> float:
    """Net gap at which a follower at speed ``v`` behind an equal-speed leader holds steady."""
    ratio = (v / v0_eff) ** params.delta
    if ratio >= 1.0:
        raise ValueError("no finite equilibrium at or above the effective desired speed")
    return (params.s0 + v * params.T) / math.sqrt(1.0 - ratio)


def ballistic_update(v: float, acc: float, dt: float) -> tuple[float, float]:
    """(distance advanced, new speed) after one constant-acceleration step.

    A vehicle that would cross zero speed inside the step advances exactly
    its kinematic stopping distance v²/(2|a|) and ends at rest — it never
    rolls backwards.
    """
    v_new = v + acc * dt
    if v_new < 0.0:
        ds = 0.0 if acc >= 0.0 else v * v / (-2.0 * acc)
        return ds, 0.0
    ds = v * dt + 0.5 * acc * dt * dt
    return (ds if ds > 0.0 else 0.0), v_new


@dataclass
class Trip:
    """Visit a fixed list of destination nodes in order; done after the last."""

    destinations: tuple[int, ...]
    cursor: int = 0

    def __init__(self, destinations, cursor: int = 0) -> None:
        self.destinations = tuple(destinations)
        self.cursor = cursor


class RandomDirection:
    """Pick a uniformly random outgoing direction at every reached node.

    The reverse of the arrival segment is excluded unless it is the only
    option (dead ends allow U-turns).  Draws come from the vehicle's own
    stream, so trajectories are reproducible per (run seed, vehicle id).
    """

    def __repr__(self) -> str:
        return "RandomDirection()"


Strategic = Trip | RandomDirection | None


@dataclass
class Vehicle:
    """Simulated road user.

    ``s`` is the center position along the travel direction of ``ref``;
    ``lane`` counts from 0 at the rightmost lane of that direction.
    """

    id: int
    ref: SegmentRef
    lane: int
    s: float
    v: float = 0.0
    acc: float = 0.0
    length: float = VEHICLE_LENGTH
    idm: IdmParams = field(default_factory=IdmParams)
    mobil: MobilParams = field(default_factory=MobilParams)
    speed_factor: float = 1.0
    strategic: Strategic = None
    route: routing.Route | None = None
    route_pos: int = 0  # index into route.node_ids of the node being approached
    rng: np.random.Generator | None = field(default=None, repr=False)
    parked: bool = False
    done: bool = False
    odometer: float = 0.0
    arrivals: list[tuple[float, int]] = field(default_factory=list)
    last_lane_change: float = -math.inf

    @property
    def v0_eff(self) -> float:
        """Effective desired speed: v0 scaled by the per-driver speed factor."""
        return self.idm.v0 * self.speed_factor


# -- neighbor views used by the MOBIL decision --------------------------------


@dataclass(slots=True)
class Neighbor:
    """Another road user, or a blocking signal or stop line, relative to the ego vehicle.

    ``raw_dist`` is the signed center-to-center distance along the corridor
    (positive ahead, negative behind); signals and stop lines have zero length
    so their net gap is measured front bumper to line.
    """

    raw_dist: float
    v: float
    length: float = VEHICLE_LENGTH
    idm: IdmParams | None = None  # required for followers
    v0_eff: float | None = None
    vehicle_id: int | None = None
    kind: str = "vehicle"  # "vehicle" | "signal" | "stop"


@dataclass(slots=True)
class LaneNeighbors:
    leader: Neighbor | None
    follower: Neighbor | None


@dataclass(slots=True)
class NeighborContext:
    current: LaneNeighbors
    left: LaneNeighbors | None = None  # None: no lane on that side
    right: LaneNeighbors | None = None


def _net_gap(ego_length: float, neighbor: Neighbor) -> float:
    return abs(neighbor.raw_dist) - (ego_length + neighbor.length) / 2.0


def _acc_toward(v: float, v0_eff: float, idm: IdmParams, gap: float, leader_v: float) -> float:
    if math.isinf(gap):
        return idm_acceleration(v, v0_eff, 0.0, math.inf, idm)
    return idm_acceleration(v, v0_eff, v - leader_v, max(gap, _GAP_FLOOR), idm)


def _acc_behind(ego: Vehicle, leader: Neighbor | None) -> float:
    """IDM acceleration of ``ego`` behind ``leader``, or on a free road when None."""
    if leader is None:
        return _acc_toward(ego.v, ego.v0_eff, ego.idm, math.inf, 0.0)
    return _acc_toward(ego.v, ego.v0_eff, ego.idm, _net_gap(ego.length, leader), leader.v)


def _change_gain(
    ego: Vehicle, a_c: float, current: LaneNeighbors, target: LaneNeighbors
) -> tuple[bool, float, float | None]:
    """(passes, incentive surplus, new-follower post-change acceleration).

    ``a_c`` is the ego's acceleration behind ``current.leader``.
    """
    mp = ego.mobil
    cur_leader = current.leader
    tgt_leader = target.leader
    if tgt_leader is not None and _net_gap(ego.length, tgt_leader) <= 0:
        return False, 0.0, None
    a_c_new = _acc_behind(ego, tgt_leader)

    follower_terms = 0.0
    a_n_new: float | None = None
    f = target.follower
    if f is not None:
        gap_f_ego = _net_gap(ego.length, f)
        if gap_f_ego <= 0:
            return False, 0.0, None
        a_n_new = _acc_toward(f.v, f.v0_eff, f.idm, gap_f_ego, ego.v)
        if a_n_new < -mp.b_safe:
            return False, 0.0, a_n_new  # safety veto
        if tgt_leader is not None:
            gap_f_leader = (tgt_leader.raw_dist - f.raw_dist) - (f.length + tgt_leader.length) / 2.0
            a_n = _acc_toward(f.v, f.v0_eff, f.idm, gap_f_leader, tgt_leader.v)
        else:
            a_n = _acc_toward(f.v, f.v0_eff, f.idm, math.inf, 0.0)
        follower_terms += a_n - a_n_new

    g = current.follower
    if g is not None:
        gap_g_ego = _net_gap(ego.length, g)
        a_o = _acc_toward(g.v, g.v0_eff, g.idm, gap_g_ego, ego.v)
        if cur_leader is not None:
            gap_g_leader = (cur_leader.raw_dist - g.raw_dist) - (g.length + cur_leader.length) / 2.0
            a_o_new = _acc_toward(g.v, g.v0_eff, g.idm, gap_g_leader, cur_leader.v)
        else:
            a_o_new = _acc_toward(g.v, g.v0_eff, g.idm, math.inf, 0.0)
        follower_terms += a_o - a_o_new

    surplus = (a_c_new - a_c) - mp.p * follower_terms - mp.delta_a_th
    return surplus > 0.0, surplus, a_n_new


def mobil_decide(ego: Vehicle, a_c: float, neighbors: NeighborContext) -> tuple[int, float | None]:
    """MOBIL lane decision: (+1 change left, -1 change right or 0 stay, new-follower acceleration).

    ``a_c`` is the ego's IDM acceleration behind ``neighbors.current.leader``.
    A candidate lane passes only if the incentive (own gain minus the
    politeness-weighted losses of the affected followers) exceeds the change
    threshold AND the new follower is not forced below -b_safe.  When both
    sides pass, the larger surplus wins; exact ties keep right.  The second
    value is the acceleration the change imposes on the chosen lane's
    follower, None when the ego stays or that lane has no follower.
    """
    best = 0
    best_surplus = -math.inf
    best_follower_acc = None
    for direction, lanes in ((+1, neighbors.left), (-1, neighbors.right)):
        if lanes is None:
            continue
        ok, surplus, follower_acc = _change_gain(ego, a_c, neighbors.current, lanes)
        if ok and (surplus > best_surplus or (surplus == best_surplus and direction == -1)):
            best, best_surplus, best_follower_acc = direction, surplus, follower_acc
    return best, best_follower_acc


# -- world records ------------------------------------------------------------


@dataclass(frozen=True)
class LaneChangeRecord:
    time: float
    vehicle_id: int
    from_lane: int
    to_lane: int
    follower_id: int | None
    follower_acc_after: float | None  # IDM acceleration imposed on the new follower


@dataclass(frozen=True)
class CollisionRecord:
    time: float
    rear_id: int
    front_id: int
    gap: float


@dataclass(frozen=True)
class SignalViolation:
    time: float
    vehicle_id: int
    node_id: int


class _Fleet(NamedTuple):
    """Per-vehicle constants recorded at spawn, as arrays indexed by vehicle id."""

    length: np.ndarray
    b_comf: np.ndarray
    v0_eff: np.ndarray
    delta: list[float]  # Python floats: ``** delta`` is evaluated element-wise
    idm: np.ndarray  # rows a_max, s0, T and 2 * sqrt(a_max * b_comf)
    p: np.ndarray
    delta_a_th: np.ndarray
    b_safe: np.ndarray
    parked: np.ndarray


class _Segments(NamedTuple):
    """What the step reads of every directed segment, as arrays indexed by ``SegmentRef.index``.

    ``end`` is the row of the segment's end node (nodes are numbered in graph
    order), ``slot0`` the first of its ``lanes`` lane slots, and ``(x0, dx,
    y0, dy)`` run from its start node to its end node.
    """

    length: np.ndarray
    end: np.ndarray
    lanes: np.ndarray
    slot0: np.ndarray
    x0: np.ndarray
    dx: np.ndarray
    y0: np.ndarray
    dy: np.ndarray

    @classmethod
    def of(cls, graph: RoadGraph) -> _Segments:
        refs = graph.refs()
        n = len(refs)
        x = np.fromiter((node.x for node in graph.nodes.values()), float, len(graph.nodes))
        y = np.fromiter((node.y for node in graph.nodes.values()), float, len(graph.nodes))
        start = np.fromiter((graph.node_rows[ref.start_node] for ref in refs), np.int64, n)
        end = np.fromiter((graph.node_rows[ref.end_node] for ref in refs), np.int64, n)
        lanes = np.fromiter((ref.lanes for ref in refs), np.int64, n)
        return cls(np.fromiter((ref.length for ref in refs), float, n), end, lanes, np.cumsum(lanes) - lanes,
                   x[start], x[end] - x[start], y[start], y[end] - y[start])


def _idm_behind(free: np.ndarray, v: np.ndarray, idm: np.ndarray, delta_v: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """:func:`idm_acceleration` of followers at speed ``v`` with free-road acceleration ``free``.

    ``idm`` holds the followers' columns of :attr:`_Fleet.idm`; the leader
    sits at net ``gap`` (floored at ``_GAP_FLOOR``) and each follower closes
    in at ``delta_v``.  The association is the scalar one, and ``** 2`` runs
    on Python floats because NumPy's power is not byte-equal to it.
    """
    a_max, s0, T, c = idm
    s_star = s0 + v * T + v * delta_v / c
    ratio = (s_star / np.maximum(gap, _GAP_FLOOR)).tolist()
    return free - a_max * np.array([x ** 2 for x in ratio])


_NO_SLOT = np.iinfo(np.int64).max  # the lane table's sentinel entry, after every real slot


class _LaneTable:
    """Every vehicle sorted by (lane slot, s, id); a slot is one lane of one directed segment.

    The search keys are complex, ``slot + s*j``: NumPy orders complex numbers
    by real, then imaginary part, so they order (slot, s) exactly, with no
    arithmetic on ``s``.  ``of`` holds each vehicle's own key; a key moved to
    another lane of the same segment is ``of + lane difference``.  Queries
    return indices into the sorted arrays, or -1, which selects a sentinel
    entry in no slot (vehicle id -1).  ``first`` reads, per slot up to the
    highest occupied one, its rearmost entry; a slot numbered later is empty.
    """

    __slots__ = ("of", "key", "vid", "slot", "s", "rearmost")

    def __init__(self, slot: np.ndarray, s: np.ndarray) -> None:
        self.of = np.empty(len(slot), dtype=complex)
        self.of.real = slot
        self.of.imag = s
        order = np.argsort(self.of, kind="stable")  # equal keys keep ascending id
        self.key = self.of[order]
        self.vid = np.concatenate((order, [-1]))
        self.slot = np.concatenate((slot[order], [_NO_SLOT]))
        self.s = np.concatenate((s[order], [0.0]))
        self.rearmost: np.ndarray | None = None  # built by the first call of ``first``

    def _in(self, j: np.ndarray, slot: np.ndarray) -> np.ndarray:
        return np.where(self.slot[j] == slot, j, -1)

    def ahead(self, key: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Nearest entry of ``slot`` strictly ahead of ``key``'s position."""
        return self._in(np.searchsorted(self.key, key, "right"), slot)

    def behind(self, key: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Nearest entry of ``slot`` strictly behind ``key``'s position."""
        return self._in(np.searchsorted(self.key, key, "left") - 1, slot)

    def first(self, slot: np.ndarray) -> np.ndarray:
        """Rearmost entry of ``slot``: positions are never negative, so the first one past -1 m."""
        if self.rearmost is None:
            starts = np.concatenate(([True], self.slot[1:-1] != self.slot[:-2])).nonzero()[0]
            self.rearmost = np.full(self.slot[-2] + 2, -1)  # the last entry serves every higher slot
            self.rearmost[self.slot[starts]] = starts
        return self.rearmost[np.minimum(slot, len(self.rearmost) - 1)]


_NONE, _STANDING, _OPEN = -2, -1, -3  # look-ahead results other than a vehicle id
# route hops the look-ahead evaluates per pass: on the city-trips benchmark a
# pair settles within 12 hops, so one pass serves it, while evaluating every
# hop left on a route (median 115 there) would mostly read past the horizon
_HOPS = 16


class World:
    """Owns all vehicles and advances them on one shared timeline.

    ``step`` applies one fixed time slice.  Decisions for every vehicle are
    computed at once, as arrays, from the start-of-step state; lane changes
    are recorded in ascending id order.  Then positions are integrated, and
    route topology (segment crossings, arrivals, rerouting) is resolved for
    the vehicles that reach a node.  Update order therefore cannot change the
    physics.  The arithmetic is that of the public per-vehicle model
    (:func:`idm_acceleration`, :func:`mobil_decide`,
    :func:`ballistic_update`), operation for operation, so both give the same
    bits.

    ``vehicles`` is the one record of vehicle state: each step reads it into
    arrays and writes the results back.  Its keys are 0..n-1 in spawn order,
    and a vehicle's id is its index in every per-vehicle array.  Segments are
    numbered by the graph (``SegmentRef.index``), nodes in graph order, and
    the constructor reads every segment's columns once (:class:`_Segments`).
    Between steps, vehicle state changes only through ``step``, ``spawn``
    and ``strategic_next``, so the lane table sorted after one step's moves
    is kept as the next step's start-of-step table; ``spawn`` discards it.
    The set of nodes whose signal blocks (yellow or red) is built once per
    ``step`` and once per ``perceive_leader`` call, so a signal added or
    retimed between steps takes effect at the next step.
    """

    def __init__(
        self,
        graph: RoadGraph,
        *,
        seed: int = 0,
        perception_horizon: float = PERCEPTION_HORIZON,
    ) -> None:
        self.graph = graph
        self.seed = seed
        self.time = 0.0
        self.vehicles: dict[int, Vehicle] = {}
        self.signals = dict(graph.signals)
        self.horizon = perception_horizon
        self.lane_changes: list[LaneChangeRecord] = []
        self.collisions: list[CollisionRecord] = []
        self.signal_violations: list[SignalViolation] = []
        self._table: _LaneTable | None = None  # lane table of the current state
        self._occupancy: dict | None = None  # (ref index, lane) -> vehicles, for placement checks
        self._columns = _Segments.of(graph)
        # per vehicle, kept as the world moves it: its directed segment, its
        # route's segments (a run of ``_flat``, rebuilt whenever a route
        # changed) and the node its trip stops at (-1: none); vehicles whose
        # route or trip cursor changed are "stale" until their route is read
        self._seg = np.zeros(0, dtype=np.int64)
        self._route_segs: list[list[int]] = []
        self._flat = self._route_start = self._route_count = np.zeros(0, dtype=np.int64)
        self._final = np.zeros(0, dtype=np.int64)
        self._stale: set[int] = set()
        self._params: list[tuple] = []  # per vehicle, the columns of _Fleet
        self._consts: _Fleet | None = None

    # -- population ---------------------------------------------------------

    @property
    def next_vehicle_id(self) -> int:
        return len(self.vehicles)

    def spawn(
        self,
        *,
        way: int,
        segment: int = 0,
        lane: int = 0,
        offset: float = 0.0,
        forward: bool = True,
        strategic: Strategic = None,
        speed: float = 0.0,
        idm: IdmParams | None = None,
        mobil: MobilParams | None = None,
        length: float = VEHICLE_LENGTH,
        parked: bool = False,
        speed_factor: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> Vehicle:
        """Place a new vehicle at (way, segment, lane, offset).

        Unresolvable placements raise :class:`PlacementError` naming the
        offending key.  Each vehicle gets its own random stream derived from
        (world seed, vehicle id); the driver's speed factor is drawn from it
        once, uniformly in [0.8, 1.2], unless given explicitly.
        """
        if way not in self.graph.ways:
            raise PlacementError("way", f"unknown way id {way}")
        n_segments = len(self.graph.ways[way].node_refs) - 1
        if not 0 <= segment < n_segments:
            raise PlacementError("segment", f"way {way} has segments 0..{n_segments - 1}, got {segment}")
        try:
            ref = self.graph.ref(way, segment, forward)
        except KeyError:
            raise PlacementError("lane", f"way {way} has no lanes in this direction") from None
        if not 0 <= lane < ref.lanes:
            raise PlacementError("lane", f"segment has lanes 0..{ref.lanes - 1}, got {lane}")
        if not 0.0 <= offset <= ref.length:
            raise PlacementError("offset", f"offset {offset} outside segment length {ref.length:.2f}")

        vid = len(self.vehicles)
        stream = rng if rng is not None else substream(self.seed, "vehicle", vid)
        if speed_factor is None:
            lo = 1.0 - SPEED_FACTOR_SPREAD
            speed_factor = lo + 2.0 * SPEED_FACTOR_SPREAD * float(stream.random())

        if isinstance(strategic, Trip):
            strategic = Trip(strategic.destinations, strategic.cursor)
        vehicle = Vehicle(
            id=vid,
            ref=ref,
            lane=lane,
            s=offset,
            v=0.0 if parked else speed,
            length=length,
            idm=idm if idm is not None else IdmParams(),
            mobil=mobil if mobil is not None else MobilParams(),
            speed_factor=speed_factor,
            strategic=strategic,
            rng=stream,
            parked=parked,
        )
        end = ref.end_node
        if isinstance(strategic, Trip) and strategic.cursor < len(strategic.destinations):
            vehicle.route = routing.shortest_path(self.graph, end, strategic.destinations[strategic.cursor])
        else:
            vehicle.route = routing.Route((end,), 0.0)
        vehicle.route_pos = 0
        self.vehicles[vid] = vehicle
        p, m = vehicle.idm, vehicle.mobil
        self._params.append((length, p.b_comf, vehicle.v0_eff, p.delta, p.a_max, p.s0, p.T,
                             2.0 * math.sqrt(p.a_max * p.b_comf), m.p, m.delta_a_th, m.b_safe, parked))
        self._consts = None
        self._route_segs.append([])
        self._stale.add(vid)
        self._table = None
        if self._occupancy is not None:
            self._occupancy.setdefault((ref.index, lane), []).append(vehicle)
        return vehicle

    def lane_is_clear(self, ref: SegmentRef, lane: int, s: float, margin: float) -> bool:
        """True when no vehicle occupies (ref, lane) within ``margin`` meters of s.

        Reads a (ref index, lane) index that ``spawn`` extends and ``step`` drops.
        """
        if self._occupancy is None:
            self._occupancy = {}
            for veh in self.vehicles.values():
                self._occupancy.setdefault((veh.ref.index, veh.lane), []).append(veh)
        return not any(abs(veh.s - s) < margin for veh in self._occupancy.get((ref.index, lane), ()))

    # -- perception -----------------------------------------------------------

    def _is_final_leg(self, vehicle: Vehicle) -> bool:
        sm = vehicle.strategic
        if isinstance(sm, RandomDirection):
            return False
        if isinstance(sm, Trip):
            return sm.cursor >= len(sm.destinations) - 1
        return True  # no strategic model: stop at the end of the route

    def _blocking_signals(self) -> np.ndarray:
        """Per node index: True where the node's signal is yellow or red at the current time."""
        t, graph = self.time, self.graph
        blocked = np.zeros(len(graph.nodes) + 1, dtype=bool)  # the extra entry is "no node"
        for node, sig in self.signals.items():
            if node in graph.nodes and signal_phase(sig, t) != "green":
                blocked[graph.node_rows[node]] = True
        return blocked

    def perceive_leader(self, vehicle: Vehicle) -> tuple[float, float] | None:
        """(net gap, approach rate) to the nearest obstruction ahead, or None when free.

        The scan follows the vehicle's route across segment boundaries up to
        the perception horizon.  Yellow/red signals at upcoming nodes count as
        standing leaders at the stop line; green signals are invisible.
        """
        s, v, lane, route_pos, _ = self._state()
        table = self._lane_table(s, lane)
        ego = np.array([vehicle.id])
        slot = self._columns.slot0[self._seg[ego]] + lane[ego]
        hit, raw = self._look_ahead(table, self._blocking_signals(), ego, lane[ego], table.of[ego], slot, s, route_pos)
        other = int(hit[0])
        if other == _NONE:
            return None
        lead_length, lead_v = (self.vehicles[other].length, float(v[other])) if other >= 0 else (0.0, 0.0)
        return abs(float(raw[0])) - (vehicle.length + lead_length) / 2.0, vehicle.v - lead_v

    def position(self, vehicle: Vehicle) -> tuple[float, float]:
        """World coordinates of the vehicle center (lane offsets are ignored)."""
        columns, i = self._columns, vehicle.ref.index
        frac = min(max(vehicle.s / vehicle.ref.length, 0.0), 1.0)
        return float(columns.x0[i] + frac * columns.dx[i]), float(columns.y0[i] + frac * columns.dy[i])

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`position` of every vehicle, in id order, as one array evaluation (same bits)."""
        if not self.vehicles:
            return np.empty(0), np.empty(0)
        self._grow()
        length, _, _, _, x0, dx, y0, dy = self._columns
        seg = self._seg
        ratio = np.array([veh.s for veh in self.vehicles.values()]) / length[seg]
        ratio = np.where(0.0 > ratio, 0.0, ratio)  # max(ratio, 0.0)
        frac = np.where(1.0 < ratio, 1.0, ratio)  # min(ratio, 1.0)
        return x0[seg] + frac * dx[seg], y0[seg] + frac * dy[seg]

    # -- strategic layer ------------------------------------------------------

    def strategic_next(self, vehicle: Vehicle, arrived_at: int) -> int | None:
        """Next destination node after arriving at ``arrived_at``; None when done."""
        sm = vehicle.strategic
        if sm is None:
            return None
        if isinstance(sm, Trip):
            vehicle.arrivals.append((self.time, arrived_at))
            sm.cursor += 1
            self._stale.add(vehicle.id)  # the cursor decides the final leg
            if sm.cursor >= len(sm.destinations):
                return None
            return sm.destinations[sm.cursor]
        options = list(self.graph.outgoing(arrived_at))
        if not options:
            raise StrandedError(f"vehicle {vehicle.id}: no outgoing segment at node {arrived_at}")
        arrival_key = vehicle.ref.key
        reverse_key = (arrival_key[0], arrival_key[1], not arrival_key[2])
        candidates = [ref for ref in options if ref.key != reverse_key]
        if not candidates:
            candidates = options  # dead end: the U-turn is the only way out
        if vehicle.rng is None:
            raise SimulationError(f"vehicle {vehicle.id} has no random stream for direction choice")
        pick = candidates[int(vehicle.rng.integers(len(candidates)))]
        return pick.end_node

    # -- arrays -----------------------------------------------------------------

    def _grow(self) -> None:
        """Extend the per-vehicle arrays that the world keeps to the vehicles spawned since."""
        if len(self._seg) < len(self.vehicles):
            new = list(self.vehicles.values())[len(self._seg):]
            self._seg = np.concatenate((self._seg, [veh.ref.index for veh in new]))
            self._final = np.concatenate((self._final, np.full(len(new), -1)))

    def _state(self) -> tuple[np.ndarray, ...]:
        """The vehicles' s, v, lane, route position and done flag, read into arrays."""
        self._grow()
        if self._stale:
            for vid in self._stale:
                self._read_route(vid)
            self._stale.clear()
            runs = self._route_segs
            self._route_count = np.fromiter(map(len, runs), np.int64, len(runs))
            self._route_start = np.cumsum(self._route_count) - self._route_count
            self._flat = np.fromiter(chain.from_iterable(runs), np.int64)
        order = self.vehicles.values()
        return (np.array([veh.s for veh in order]), np.array([veh.v for veh in order]),
                np.array([veh.lane for veh in order], dtype=np.int64),
                np.array([veh.route_pos for veh in order], dtype=np.int64),
                np.array([veh.done for veh in order], dtype=bool))

    def _read_route(self, vid: int) -> None:
        """Record a vehicle's route segments and the node its trip stops at."""
        veh = self.vehicles[vid]
        self._route_segs[vid] = [ref.index for ref in veh.route.refs]
        self._final[vid] = self.graph.node_rows[veh.route.node_ids[-1]] if self._is_final_leg(veh) else -1

    def _constants(self) -> _Fleet:
        if self._consts is None:
            length, b_comf, v0_eff, delta, *idm, p, delta_a_th, b_safe, parked = zip(*self._params)
            self._consts = _Fleet(np.array(length), np.array(b_comf), np.array(v0_eff), list(delta), np.array(idm),
                                  np.array(p), np.array(delta_a_th), np.array(b_safe), np.array(parked))
        return self._consts

    def _lane_table(self, s: np.ndarray, lane: np.ndarray) -> _LaneTable:
        if self._table is None:
            self._table = _LaneTable(self._columns.slot0[self._seg] + lane, s)
        return self._table

    def _look_ahead(
        self,
        table: _LaneTable,
        blocked: np.ndarray,
        ego: np.ndarray,
        lane: np.ndarray,
        key: np.ndarray,
        slot: np.ndarray,
        s: np.ndarray,
        route_pos: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closest obstruction ahead of each vehicle ``ego[k]`` in ``lane[k]`` within the horizon.

        ``key`` and ``slot`` are the pair's lane-table key and slot.  Returns
        per pair what blocks (a vehicle id, ``_STANDING`` for a blocking
        signal or the trip's final stop, ``_NONE`` when free) and the center
        distance to it along the route.  On the ego's segment that is the
        nearest vehicle strictly ahead.  Then the scan alternates, as the
        route goes on: the node ahead (the horizon, a blocking signal, the
        final stop, the route's end) and the next segment's rearmost vehicle
        in lane ``min(lane, lanes - 1)``, up to ``_HOPS`` segments per pass.
        """
        horizon = self.horizon
        seg_len, seg_end, seg_lanes, slot0, *_ = self._columns
        seg = self._seg[ego]
        s_ego = s[ego]
        j = table.ahead(key, slot)
        raw = table.s[j] - s_ego
        hit = np.where((j >= 0) & (raw <= horizon), table.vid[j], _NONE)

        pair = (hit == _NONE).nonzero()[0]
        owner = ego[pair]
        q, stop = lane[pair], self._final[owner]
        at = self._route_start[owner] + route_pos[owner]  # flat index of the segment after the end node
        last = self._route_start[owner] + self._route_count[owner]
        cum, node = (seg_len[seg] - s_ego)[pair], seg_end[seg[pair]]
        while True:
            # the node ahead, ``cum`` away: past the horizon, a blocking
            # signal or the final stop, or the route's end settles the pair
            found = np.where(cum > horizon, _NONE, np.where(
                blocked[node] | (node == stop), _STANDING, np.where(at == last, _NONE, _OPEN)))
            settled = found != _OPEN
            hit[pair[settled]] = found[settled]
            raw[pair[settled]] = cum[settled]
            go = ~settled
            if not go.any():
                return hit, raw
            pair, q, stop, at, last, cum = pair[go], q[go], stop[go], at[go], last[go], cum[go]
            # the next segments, row h being hop h (up to _HOPS at once): the
            # rearmost vehicle in lane min(lane, lanes - 1), then the node at
            # the segment's end, with distances summed in route order
            hop = at + np.arange(min(_HOPS, (last - at).max()))[:, None]
            nxt = self._flat[np.where(hop < last, hop, 0)]
            reach = np.concatenate((cum[None], seg_len[nxt])).cumsum(axis=0)
            k = table.first(slot0[nxt] + np.minimum(q, seg_lanes[nxt] - 1))
            d = reach[:-1] + table.s[k]
            end, node = reach[1:], seg_end[nxt]
            found = np.where(k >= 0, np.where(d <= horizon, table.vid[k], _NONE), np.where(
                end > horizon, _NONE, np.where(blocked[node] | (node == stop), _STANDING,
                                               np.where(hop + 1 == last, _NONE, _OPEN))))
            first = (found != _OPEN).argmax(axis=0)  # rows past the route's end come after it settles
            col = np.arange(len(pair))
            found = found[first, col]
            settled = found != _OPEN
            hit[pair[settled]] = found[settled]
            raw[pair[settled]] = np.where(k[first, col] >= 0, d[first, col], end[first, col])[settled]
            go = ~settled
            pair, q, stop, at, last = pair[go], q[go], stop[go], at[go] + len(hop), last[go]
            cum, node = reach[-1, go], node[-1, go]
        return hit, raw

    # -- stepping ---------------------------------------------------------------

    def _advance_route(self, vehicle: Vehicle, node: int) -> bool:
        """Resolve the strategic layer at a route's terminal node.

        Returns True when a fresh multi-node route was installed, False when
        the vehicle is done (no further destination).
        """
        self._stale.add(vehicle.id)
        nxt = self.strategic_next(vehicle, node)
        while nxt is not None:
            route = routing.shortest_path(self.graph, node, nxt)
            if len(route.node_ids) > 1:
                vehicle.route = route
                vehicle.route_pos = 0
                return True
            nxt = self.strategic_next(vehicle, node)  # destination coincides with node
        return False

    def _finish(self, vehicle: Vehicle, position: float | None = None) -> None:
        vehicle.done = True
        vehicle.v = 0.0
        vehicle.acc = 0.0
        if position is not None:
            vehicle.s = position

    def _settle(self, vehicle: Vehicle) -> None:
        """Resolve the nodes a moved vehicle crossed, then a smooth final arrival."""
        while vehicle.s > vehicle.ref.length:
            leftover = vehicle.s - vehicle.ref.length
            node = vehicle.route.node_ids[vehicle.route_pos]
            sig = self.signals.get(node)
            if sig is not None and signal_phase(sig, self.time) == "red":
                self.signal_violations.append(SignalViolation(self.time, vehicle.id, node))
            if vehicle.route_pos == len(vehicle.route.node_ids) - 1:
                if not self._advance_route(vehicle, node):
                    # crossed the terminal node at speed: park at the node
                    self._finish(vehicle, position=vehicle.ref.length)
                    return
            vehicle.ref = vehicle.route.refs[vehicle.route_pos]
            self._seg[vehicle.id] = vehicle.ref.index
            vehicle.lane = min(vehicle.lane, vehicle.ref.lanes - 1)
            vehicle.s = leftover
            vehicle.route_pos += 1

        # smooth final arrival: a final-leg vehicle that has braked to a stop
        # just short of its last node registers the arrival and parks there.
        if (
            not vehicle.done
            and vehicle.v < _ARRIVAL_SPEED
            and self._is_final_leg(vehicle)
            and vehicle.route is not None
            and vehicle.route_pos == len(vehicle.route.node_ids) - 1
        ):
            node = vehicle.route.node_ids[vehicle.route_pos]
            remaining = vehicle.ref.length - vehicle.s - vehicle.length / 2.0
            if remaining <= vehicle.idm.s0 * 1.5 + 1e-9:
                if not self._advance_route(vehicle, node):
                    self._finish(vehicle)

    def step(self, dt: float) -> None:
        """Advance every vehicle by ``dt`` seconds."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        order = list(self.vehicles.values())
        if not order:
            self.time += dt
            return
        s, v, lane, route_pos, done = self._state()
        table = self._lane_table(s, lane)
        self._table = self._occupancy = None  # decisions change lanes; moves change positions
        fleet = self._constants()
        length = fleet.length
        free = fleet.idm[0] * (1.0 - np.array([x ** d for x, d in zip((v / fleet.v0_eff).tolist(), fleet.delta)]))
        seg_len, _, seg_lanes, slot0, *_ = self._columns

        # pairs (vehicle, lane) to look ahead in: every moving vehicle's own
        # lane, then the left and the right lanes of the MOBIL candidates
        movers = (~(fleet.parked | done)).nonzero()[0]
        m = len(movers)
        ego, shift, sides = movers, np.zeros(m, dtype=np.int64), ()
        lanes_here = seg_lanes[self._seg[movers]]
        multi = (lanes_here > 1).nonzero()[0]
        if len(multi):
            last_change = np.array([order[k].last_lane_change for k in movers[multi].tolist()])
            mobil = multi[~(self.time - last_change < LANE_CHANGE_COOLDOWN)]
            cand = movers[mobil]
            left = (lane[cand] + 1 < lanes_here[mobil]).nonzero()[0]
            right = (lane[cand] > 0).nonzero()[0]
            sides = np.concatenate((left, right))  # the side pairs' candidates, as indices into ``mobil``
            ego = np.concatenate((movers, cand[sides]))
            shift = np.concatenate((shift, np.ones(len(left), dtype=np.int64), np.full(len(right), -1)))
        target = lane[ego] + shift
        key, slot = table.of[ego] + shift, slot0[self._seg[ego]] + target
        hit, raw = self._look_ahead(table, self._blocking_signals(), ego, target, key, slot, s, route_pos)
        has = hit != _NONE
        lead_v = np.concatenate((v, [0.0]))[hit]  # a standing obstruction (-1) has speed and length 0
        lead_len = np.concatenate((length, [0.0]))[hit]
        net = np.abs(raw) - (length[ego] + lead_len) / 2.0  # ego to the obstruction in the pair's lane

        # every IDM evaluation of the step in one batch: each ego behind the
        # obstruction of its pair's lane and, for MOBIL's pairs, the lane's
        # follower behind the ego and behind that obstruction
        by_lead = has.nonzero()[0]
        who, ahead_v, gaps = ego[by_lead], lead_v[by_lead], net[by_lead]
        if len(sides):
            fol = table.vid[table.behind(key, slot)]  # -1 where none: every value read through it is unused
            candidate = np.zeros(m, dtype=bool)
            candidate[mobil] = True
            fol[:m][~candidate] = -1  # MOBIL asks only for its candidates' followers
            f_raw = s[fol] - s[ego]
            f_net = np.abs(f_raw) - (length[ego] + length[fol]) / 2.0  # follower to ego
            f_lead = (raw - f_raw) - (length[fol] + lead_len) / 2.0  # follower to the ego's obstruction
            by_ego = (fol >= 0).nonzero()[0]
            both = ((fol >= 0) & has).nonzero()[0]
            who = np.concatenate((who, fol[by_ego], fol[both]))
            ahead_v = np.concatenate((ahead_v, v[ego[by_ego]], lead_v[both]))
            gaps = np.concatenate((gaps, f_net[by_ego], f_lead[both]))
        acc_of = _idm_behind(free[who], v[who], fleet.idm[:, who], v[who] - ahead_v, gaps)
        a_lead = free[ego]
        a_lead[by_lead] = acc_of[:len(by_lead)]
        acc = np.zeros(len(order))
        stopped = (done & ~fleet.parked).nonzero()[0]
        acc[stopped] = np.where(v[stopped] > 0, -fleet.b_comf[stopped], 0.0)
        acc[movers] = a_lead[:m]
        if len(sides):
            # MOBIL per side pair, as _change_gain: the ego behind the target
            # lane's obstruction, that lane's follower behind the ego instead
            # of behind the obstruction, and the own lane's follower (pair
            # ``own``) behind the ego's obstruction instead of behind the ego
            a_f_ego = np.zeros(len(ego))
            a_f_ego[by_ego] = acc_of[len(by_lead):len(by_lead) + len(by_ego)]
            a_f_lead = free[fol]
            a_f_lead[both] = acc_of[len(by_lead) + len(by_ego):]
            pair, own, e = m + np.arange(len(sides)), mobil[sides], cand[sides]
            with_f = fol[pair] >= 0
            ok = ~(has[pair] & (net[pair] <= 0.0)) & ~(
                with_f & ((f_net[pair] <= 0.0) | (a_f_ego[pair] < -fleet.b_safe[e])))
            terms = np.where(with_f, 0.0 + (a_f_lead[pair] - a_f_ego[pair]), 0.0)
            terms = np.where(fol[own] >= 0, terms + (a_f_ego[own] - a_f_lead[own]), terms)
            surplus = (a_lead[pair] - a_lead[own]) - fleet.p[e] * terms - fleet.delta_a_th[e]
            self._change_lanes(lane, cand, sides, len(left), ok & (surplus > 0.0), surplus, fol[pair], a_f_ego[pair])

        # every acceleration is set before any vehicle moves, so a step that
        # aborts below keeps them all; then the ballistic update with its
        # stopping clamp, element-wise, for every unparked vehicle; a done
        # one stays put and bleeds off any speed left (a rare clamp-stop
        # case) as max(0.0, v + acc * dt)
        for veh, a_k in zip(order, acc.tolist()):
            veh.acc = a_k
        active = (~fleet.parked).nonzero()[0]
        a = acc[active]
        v_now = v[active]
        v_new = v_now + a * dt
        ds = v_now * dt + 0.5 * a * dt * dt
        ds = np.where(ds > 0.0, ds, 0.0)
        clamp = (v_new < 0.0).nonzero()[0]
        if len(clamp):
            v_new[clamp] = 0.0
            ds[clamp] = 0.0
            braking = clamp[a[clamp] < 0.0]
            ds[braking] = v_now[braking] * v_now[braking] / (-2.0 * a[braking])
        s_new = s[active] + ds
        halt = done[active]
        if len(stopped):
            bled = v_now + a * dt
            v_new[halt] = np.where(v_now > 0, np.where(bled > 0.0, bled, 0.0), v_now)[halt]
            ds[halt] = 0.0
            s_new[halt] = s[active][halt]

        # topology, for the vehicles that crossed a node or may register a
        # final arrival; vehicle by vehicle in ascending id, moves included,
        # so a step that fails in one vehicle's topology leaves the vehicles
        # after it unmoved
        settle = (s_new > seg_len[self._seg[active]]) | (
            (v_new < _ARRIVAL_SPEED) & (self._final[active] >= 0)
            & (route_pos[active] == self._route_count[active]))
        settle &= ~halt
        moved = order if len(active) == len(order) else [order[k] for k in active.tolist()]
        for veh, s_k, v_k, ds_k, go in zip(moved, s_new.tolist(), v_new.tolist(), ds.tolist(), settle.tolist()):
            veh.s = s_k
            veh.v = v_k
            veh.odometer += ds_k
            if go:
                self._settle(veh)
        s[active] = s_new
        for k in settle.nonzero()[0].tolist():
            veh = moved[k]
            s[veh.id] = veh.s
            lane[veh.id] = veh.lane
        self.time += dt
        self._scan_collisions(s, lane, length)

    def _change_lanes(self, lane, cand, sides, n_left, ok, surplus, follower, follower_acc) -> None:
        """Apply and record MOBIL's choice for every candidate, as :func:`mobil_decide` chooses.

        Side ``t`` belongs to candidate ``cand[sides[t]]`` (left sides first,
        ``n_left`` of them); it passes where ``ok[t]``, with ``surplus[t]``,
        and its target lane's follower (-1: none) would get ``follower_acc[t]``.
        The larger passing surplus wins and an exact tie keeps right.  Changes
        are made in ``lane`` and on the vehicles and recorded in ascending id
        order.
        """
        n, k = len(cand), len(sides)
        row = (np.arange(k) >= n_left).astype(np.int64)  # 0: left, 1: right
        passes = np.zeros((2, n), dtype=bool)
        gain = np.full((2, n), -math.inf)
        side = np.zeros((2, n), dtype=np.int64)
        passes[row, sides] = ok
        gain[row, sides] = surplus
        side[row, sides] = np.arange(k)
        go_right = passes[1] & (~passes[0] | (gain[1] >= gain[0]))
        go_left = passes[0] & ~go_right
        vehicles, time = self.vehicles, self.time
        for r in (go_left | go_right).nonzero()[0].tolist():
            direction = 1 if go_left[r] else -1
            t = side[0 if direction == 1 else 1, r]
            fid = int(follower[t])
            vehicle = vehicles[int(cand[r])]
            self.lane_changes.append(
                LaneChangeRecord(
                    time=time,
                    vehicle_id=vehicle.id,
                    from_lane=vehicle.lane,
                    to_lane=vehicle.lane + direction,
                    follower_id=fid if fid >= 0 else None,
                    follower_acc_after=float(follower_acc[t]) if fid >= 0 else None,
                )
            )
            vehicle.lane += direction
            vehicle.last_lane_change = time
            lane[vehicle.id] = vehicle.lane

    def _scan_collisions(self, s: np.ndarray, lane: np.ndarray, length: np.ndarray) -> None:
        """Sort the moved vehicles into the next step's lane table and record overlapping neighbours.

        Records go lane by lane, in the order of each lane's lowest vehicle
        id, and rear to front within a lane.
        """
        table = self._lane_table(s, lane)
        n = len(s)
        slot, vid = table.slot[:n], table.vid[:n]
        gap = (table.s[1:n] - table.s[:n - 1]) - (length[vid[:-1]] + length[vid[1:]]) / 2.0
        hits = ((slot[1:] == slot[:-1]) & (gap <= 0.0)).nonzero()[0]
        if not len(hits):
            return
        runs = np.concatenate(([True], slot[1:] != slot[:-1])).nonzero()[0]  # first entry of each lane
        lowest = np.minimum.reduceat(vid, runs)[np.searchsorted(runs, hits, "right") - 1]
        for k in hits[np.lexsort((hits, lowest))].tolist():
            self.collisions.append(CollisionRecord(self.time, int(vid[k]), int(vid[k + 1]), float(gap[k])))
