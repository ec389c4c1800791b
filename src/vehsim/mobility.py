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
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import routing
from ._bounds import bounded, checked
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


@checked
class IdmParams:
    """Intelligent Driver Model parameters (SI units)."""

    v0: float = bounded("> 0", 13.89)  # desired speed, m/s
    T: float = bounded("> 0", 1.5)  # desired time headway, s
    a_max: float = bounded("> 0", 1.4)  # maximum acceleration, m/s^2
    b_comf: float = bounded("> 0", 2.0)  # comfortable deceleration, m/s^2
    delta: float = bounded("> 0", 4.0)  # free-acceleration exponent
    s0: float = bounded("> 0", 2.0)  # standstill minimum net gap, m


@checked
class MobilParams:
    """MOBIL lane-change parameters."""

    p: float = bounded("finite", 0.5)  # politeness factor; any sign here, load_config's mobil.p is >= 0
    delta_a_th: float = bounded(">= 0", 0.2)  # incentive threshold, m/s^2
    b_safe: float = bounded("> 0", 4.0)  # maximum braking imposed on the new follower, m/s^2


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
    option (dead ends allow U-turns); parallel ways are distinct directions,
    and the one drawn is driven.  Draws come from the vehicle's own stream,
    so trajectories are reproducible per (run seed, vehicle id).
    """

    def __repr__(self) -> str:
        return "RandomDirection()"


Strategic = Trip | RandomDirection | None


class _Column:
    """A :class:`Vehicle` field: its world's column ``name``, or field ``index`` of its record in list ``name``.

    Column reads return a Python ``float``, ``int`` or ``bool``, never a NumPy
    scalar, whose ``repr`` differs between NumPy versions.  A column write drops
    the world's lane table and placement index; record fields are read-only.
    """

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int | None = None) -> None:
        self.name, self.index = name, index

    def __get__(self, vehicle, owner=None):
        if vehicle is None:
            return self
        column = getattr(vehicle.world, self.name)
        return column.item(vehicle.id) if self.index is None else column[vehicle.id][self.index]

    def __set__(self, vehicle, value) -> None:
        if self.index is not None:
            raise AttributeError("a driver record is set once, by World.spawn")
        world = vehicle.world
        getattr(world, self.name)[vehicle.id] = value
        world._table = world._occupancy = None


# a vehicle's driver record, ``World._drivers[id]``: IdmParams, MobilParams, float, Strategic, np.random.Generator
_Driver = namedtuple("_Driver", "idm mobil speed_factor strategic rng")


class Vehicle:
    """Simulated road user: a view of vehicle ``id`` of its world, built on demand and holding no state.

    ``s`` is the center position along the travel direction of ``ref``;
    ``lane`` counts from 0 at the rightmost lane of that direction.  The
    numeric fields (``_VIEW_FIELDS``) read and write ``world.<field>[id]``,
    ``ref`` is the graph's directed segment numbered ``world.seg[id]`` and
    the driver's fields read ``world._drivers[id]``.  Compare views by ``id``.
    """

    __slots__ = ("world", "id")

    def __init__(self, world: World, vid: int) -> None:
        self.world, self.id = world, vid

    @property
    def ref(self) -> SegmentRef:
        return SegmentRef(self.world.graph, self.world.seg.item(self.id))

    def __repr__(self) -> str:
        return f"Vehicle(id={self.id}, ref={self.ref.key}, lane={self.lane}, s={self.s!r}, v={self.v!r})"


# ``v0_eff`` is the effective desired speed: v0 scaled by the per-driver speed
# factor; ``route_pos`` counts the segments of the route entered so far
_VIEW_FIELDS = ("s", "v", "acc", "lane", "route_pos", "done", "parked", "odometer", "last_lane_change",
                "length", "v0_eff")
for _field in _VIEW_FIELDS:
    setattr(Vehicle, _field, _Column(_field))
for _index, _field in enumerate(_Driver._fields):
    setattr(Vehicle, _field, _Column("_drivers", _index))


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


# World's vehicle columns, indexed by vehicle id: name -> dtype of one entry.
# The state, then the constants recorded at spawn.  A vehicle drives, or it
# stands: ``parked`` from spawn or ``done`` after its trip.  ``seg`` is the
# directed segment (``SegmentRef.index``), ``route_len`` the number of segments
# in the vehicle's row of ``World.route``, ``_final`` the node row a trip stops
# at (-1: none), ``delta`` is raised element-wise on Python floats by libm
# ``pow``, and ``idm`` holds the rows a_max, s0, T and 2 * sqrt(a_max * b_comf).
_COLUMNS = {
    "s": float, "v": float, "acc": float, "lane": np.int64, "seg": np.int64, "route_pos": np.int64,
    "route_len": np.int64, "done": bool, "parked": bool, "odometer": float, "last_lane_change": float,
    "_final": np.int64, "length": float, "v0_eff": float, "delta": float, "idm": (float, 4),
    "p": float, "delta_a_th": float, "b_safe": float,
}


def _idm_behind(free: np.ndarray, v: np.ndarray, idm: np.ndarray, delta_v: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """:func:`idm_acceleration` of followers at speed ``v`` with free-road acceleration ``free``.

    ``idm`` holds the followers' IDM rows (``World.idm``, transposed); the leader
    sits at net ``gap`` (floored at ``_GAP_FLOOR``) and each follower closes
    in at ``delta_v``.  The association is the scalar one, and the square
    runs element-wise on Python floats through libm ``pow``, as the scalar
    ``** 2`` does (``math.pow``, iterated by ``map``): NumPy's power and
    square are not byte-equal to it.
    """
    a_max, s0, T, c = idm
    s_star = s0 + v * T + v * delta_v / c
    ratio = (s_star / np.maximum(gap, _GAP_FLOOR)).tolist()
    return free - a_max * np.fromiter(map(math.pow, ratio, repeat(2.0)), float, len(ratio))


_NO_SLOT = np.iinfo(np.int64).max  # the lane table's sentinel entry, after every real slot


class _LaneTable:
    """Every vehicle sorted by (lane slot, s, id); a slot is one lane of one directed segment.

    The search keys are complex, ``slot + s*j``: NumPy orders complex numbers
    by real, then imaginary part, so they order (slot, s) exactly, with no
    arithmetic on ``s``.  ``of`` holds each vehicle's own key; a key moved to
    another lane of the same segment is ``of + lane difference``.  Queries
    return indices into the sorted arrays, or -1, which selects a sentinel
    entry in no slot (vehicle id -1).  ``rearmost`` is the world's per-slot
    index buffer, which ``first`` fills on its first call with each
    occupied slot's first entry.  The buffer is never cleared.  An entry an
    earlier table left is overwritten where its slot is occupied now, and
    fails the slot check where it is not; it stays in range, since vehicles
    are never removed.
    """

    __slots__ = ("of", "key", "vid", "slot", "s", "rearmost", "filled")

    def __init__(self, slot: np.ndarray, s: np.ndarray, rearmost: np.ndarray) -> None:
        self.of = np.empty(len(slot), dtype=complex)
        self.of.real = slot
        self.of.imag = s
        order = np.argsort(self.of, kind="stable")  # equal keys keep ascending id
        self.key = self.of[order]
        self.vid = np.concatenate((order, [-1]))
        self.slot = np.concatenate((slot[order], [_NO_SLOT]))
        self.s = np.concatenate((s[order], [0.0]))
        self.rearmost, self.filled = rearmost, False

    def _in(self, j: np.ndarray, slot: np.ndarray) -> np.ndarray:
        return np.where(self.slot[j] == slot, j, -1)

    def ahead(self, key: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Nearest entry of ``slot`` strictly ahead of ``key``'s position."""
        return self._in(np.searchsorted(self.key, key, "right"), slot)

    def behind(self, key: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Nearest entry of ``slot`` strictly behind ``key``'s position."""
        return self._in(np.searchsorted(self.key, key, "left") - 1, slot)

    def first(self, slot: np.ndarray) -> np.ndarray:
        """Rearmost entry of ``slot``: the first of its run in the sorted slot column."""
        if not self.filled:
            starts = np.concatenate(([True], self.slot[1:-1] != self.slot[:-2])).nonzero()[0]
            self.rearmost[self.slot[starts]] = starts
            self.filled = True
        return self._in(self.rearmost[slot], slot)


_NONE, _STANDING, _OPEN = -2, -1, -3  # look-ahead results other than a vehicle id
# route hops a look-ahead pass evaluates.  Route rows end with at least _HOPS
# sentinel entries, so a pass reads _HOPS rows from any route position with no
# clipping, and settles each pair at its first settling row.  On the
# city-trips benchmark (seeds 77, 5 and 901) every pair settles in the first
# pass, 75-83 % of them at hop 9 or 10 and none past hop 12, so a shallower
# pass would send pairs into a second one
_HOPS = 16
_HOP_ROWS = np.arange(_HOPS)[:, None]


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
    bits.  Only the driving vehicles are accelerated, moved and settled.

    Vehicle state lives in one place, indexed by vehicle id 0..n-1 in spawn
    order: the columns named in ``_COLUMNS``, one array each, read as
    ``[:n]`` slices (``spawn`` doubles their capacity when full), and one
    driver record per id in ``_drivers``.  The world holds no
    :class:`Vehicle`; ``vehicles`` builds a view of each id.  A step sets every
    acceleration first, then commits the moves in ascending id, each vehicle
    that crosses a node together with the ones before it, just before its
    topology is resolved: a step that fails there leaves the vehicles after
    it unmoved.  A vehicle's route is row ``id`` of ``route``: its first
    ``route_len[id]`` entries are the segments it drives after its current
    one, written once when the route is installed, and at least ``_HOPS``
    entries of the sentinel segment (see ``__init__``) follow them.  The
    stop follows the route and the trip's cursor.  Segments and nodes are
    the graph's rows (``SegmentRef.index`` and ``RoadGraph.nodes``).
    The lane table sorted after one step's moves is kept as the next
    step's start-of-step table; ``spawn`` and a write through a
    :class:`Vehicle` view discard it.  The set of nodes whose signal blocks
    (yellow or red) is built once per ``step`` and once per
    ``perceive_leader`` call, so a signal added or retimed between steps
    takes effect at the next step.
    """

    def __init__(
        self,
        graph: RoadGraph,
        *,
        seed: int = 0,
        perception_horizon: float = PERCEPTION_HORIZON,
    ) -> None:
        if not perception_horizon > 0:  # also true for nan
            raise ValueError(f"perception_horizon must be > 0, got {perception_horizon!r}")
        self.graph = graph
        self.seed = seed
        self.time = 0.0
        self.n = 0  # vehicles spawned
        self._drivers: list[_Driver] = []
        self.signals = dict(graph.signals)
        self.horizon = perception_horizon
        self.lane_changes: list[LaneChangeRecord] = []
        self.collisions: list[CollisionRecord] = []
        self.signal_violations: list[SignalViolation] = []
        self._table: _LaneTable | None = None  # lane table of the current state
        self._occupancy: dict | None = None  # (ref index, lane) -> vehicle ids, for placement checks
        x, y, start, end = graph.x, graph.y, graph.start, graph.end
        # (x0, dx, y0, dy) of every segment, from its start node to its end node
        self._geometry = x[start], x[end] - x[start], y[start], y[end] - y[start]
        # the segment columns the look-ahead reads (length, end node, lanes - 1,
        # first slot), with one more row: the sentinel segment that pads every
        # route row.  It is infinitely long, ends at the "no node" row of
        # ``_blocking_signals`` and has one lane, in the slot after the map's
        # last, which no vehicle occupies.
        self._sentinel = len(graph.length)
        self._hop_columns = (np.append(graph.length, math.inf), np.append(end, len(graph.nodes)),
                             np.append(graph.lanes - 1, 0), np.append(graph.slot0, graph.lanes.sum()))
        self._rearmost = np.full(graph.lanes.sum() + 1, -1)  # the lane tables' buffer, the sentinel slot's too
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.empty(16, dtype))
        self.route = np.full((16, _HOPS), self._sentinel, np.int64)

    # -- population ---------------------------------------------------------

    @property
    def vehicles(self) -> dict[int, Vehicle]:
        return {vid: Vehicle(self, vid) for vid in range(self.n)}

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

        Unresolvable placements, a non-finite or negative ``speed`` and a
        non-finite or non-positive ``length`` or ``speed_factor`` raise
        :class:`PlacementError` naming the offending key.  Each vehicle gets
        its own random stream derived from (world seed, vehicle id); the
        driver's speed factor is drawn from it once, uniformly in
        [0.8, 1.2], unless given explicitly.
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
        # bare keywords, so checked here, as PlacementError; VehicleSpec declares the same bounds
        if not 0.0 <= speed < math.inf:
            raise PlacementError("speed", f"must be finite and >= 0, got {speed!r}")
        for key, value in (("length", length), ("speed_factor", speed_factor)):
            if value is not None and not 0.0 < value < math.inf:
                raise PlacementError(key, f"must be finite and > 0, got {value!r}")

        vid = self.n
        stream = rng if rng is not None else substream(self.seed, "vehicle", vid)
        if speed_factor is None:
            lo = 1.0 - SPEED_FACTOR_SPREAD
            speed_factor = lo + 2.0 * SPEED_FACTOR_SPREAD * float(stream.random())
        idm = idm if idm is not None else IdmParams()
        mobil = mobil if mobil is not None else MobilParams()
        if isinstance(strategic, Trip):
            strategic = Trip(strategic.destinations, strategic.cursor)
        route = []
        if isinstance(strategic, Trip) and strategic.cursor < len(strategic.destinations):
            target = strategic.destinations[strategic.cursor]
            route = [hop.index for hop in routing.shortest_path(self.graph, ref.end_node, target).refs]

        if vid == len(self.s):  # full: double every column's capacity, and the routes'
            for name in (*_COLUMNS, "route"):
                old = getattr(self, name)
                new = np.empty((2 * vid,) + old.shape[1:], old.dtype)
                new[:vid] = old
                setattr(self, name, new)
        row = {  # every column but route_pos, route_len and _final, which ``_install`` writes
            "s": offset, "v": 0.0 if parked else speed, "acc": 0.0, "lane": lane, "seg": ref.index,
            "done": False, "parked": parked, "odometer": 0.0, "last_lane_change": -math.inf, "length": length,
            "v0_eff": idm.v0 * speed_factor, "delta": idm.delta,
            "idm": (idm.a_max, idm.s0, idm.T, 2.0 * math.sqrt(idm.a_max * idm.b_comf)),
            "p": mobil.p, "delta_a_th": mobil.delta_a_th, "b_safe": mobil.b_safe,
        }
        for name, value in row.items():
            getattr(self, name)[vid] = value
        self._drivers.append(_Driver(idm, mobil, speed_factor, strategic, stream))
        self.n += 1
        self._install(vid, route)
        self._table = None
        if self._occupancy is not None:
            self._occupancy.setdefault((ref.index, lane), []).append(vid)
        return Vehicle(self, vid)

    def lane_is_clear(self, ref: SegmentRef, lane: int, s: float, margin: float) -> bool:
        """True when no vehicle occupies (ref, lane) within ``margin`` meters of s.

        Reads a (ref index, lane) index that ``spawn`` extends and ``step`` drops.
        """
        if self._occupancy is None:
            self._occupancy = {}
            for vid, key in enumerate(zip(self.seg[:self.n].tolist(), self.lane[:self.n].tolist())):
                self._occupancy.setdefault(key, []).append(vid)
        return not any(abs(self.s.item(vid) - s) < margin for vid in self._occupancy.get((ref.index, lane), ()))

    # -- perception -----------------------------------------------------------

    def _blocking_signals(self) -> np.ndarray:
        """Per node index: True where the node's signal is yellow or red at the current time."""
        t, graph = self.time, self.graph
        blocked = np.zeros(len(graph.nodes) + 1, dtype=bool)  # the extra entry is "no node"
        for node, sig in self.signals.items():
            if node in graph.nodes and signal_phase(sig, t) != "green":
                blocked[graph.nodes[node]] = True
        return blocked

    def perceive_leader(self, vehicle: Vehicle) -> tuple[float, float] | None:
        """(net gap, approach rate) to the nearest obstruction ahead, or None when free.

        The scan follows the vehicle's route across segment boundaries up to
        the perception horizon.  Yellow/red signals at upcoming nodes count as
        standing leaders at the stop line; green signals are invisible.
        """
        table = self._lane_table()
        ego = np.array([vehicle.id])
        lane = self.lane[ego]
        slot = self.graph.slot0[self.seg[ego]] + lane
        hit, raw = self._look_ahead(table, self._blocking_signals(), ego, lane, table.of[ego], slot)
        other = int(hit[0])
        if other == _NONE:
            return None
        lead_length, lead_v = (self.length.item(other), self.v.item(other)) if other >= 0 else (0.0, 0.0)
        return abs(float(raw[0])) - (vehicle.length + lead_length) / 2.0, vehicle.v - lead_v

    def position(self, vehicle: Vehicle) -> tuple[float, float]:
        """World coordinates of the vehicle center (lane offsets are ignored)."""
        (x0, dx, y0, dy), i = self._geometry, vehicle.ref.index
        frac = min(max(vehicle.s / vehicle.ref.length, 0.0), 1.0)
        return float(x0[i] + frac * dx[i]), float(y0[i] + frac * dy[i])

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`position` of every vehicle, in id order, as one array evaluation (same bits)."""
        n = self.n
        x0, dx, y0, dy = self._geometry
        seg = self.seg[:n]
        ratio = self.s[:n] / self.graph.length[seg]
        ratio = np.where(0.0 > ratio, 0.0, ratio)  # max(ratio, 0.0)
        frac = np.where(1.0 < ratio, 1.0, ratio)  # min(ratio, 1.0)
        return x0[seg] + frac * dx[seg], y0[seg] + frac * dy[seg]

    # -- strategic layer ------------------------------------------------------

    def strategic_next(self, vehicle: Vehicle, arrived_at: int) -> int | None:
        """Next destination node after arriving at ``arrived_at``; None when done."""
        vid, sm = vehicle.id, vehicle.strategic
        if sm is None:
            return None
        if isinstance(sm, Trip):
            sm.cursor += 1
            self._set_stop(vid)  # the cursor decides the final leg
            return sm.destinations[sm.cursor] if sm.cursor < len(sm.destinations) else None
        return self.graph.ids[self.graph.end.item(self._draw(vid, arrived_at))]

    def _draw(self, vid: int, arrived_at: int) -> int:
        """The outgoing segment (``SegmentRef.index``) a RandomDirection vehicle drives on from ``arrived_at``."""
        graph, row = self.graph, self.graph.nodes[arrived_at]
        options = graph.out_seg[graph.out_start[row]:graph.out_start[row + 1]].tolist()
        if not options:
            raise StrandedError(f"vehicle {vid}: no outgoing segment at node {arrived_at}")
        # the arrival segment's piece in the other direction only at a dead end, where the U-turn is
        # the only way out
        here = self.seg.item(vid)
        piece = graph.way.item(here), graph.way_index.item(here)
        candidates = [k for k in options if (graph.way.item(k), graph.way_index.item(k)) != piece] or options
        return candidates[int(self._drivers[vid].rng.integers(len(candidates)))]

    # -- arrays -----------------------------------------------------------------

    def _install(self, vid: int, route: list[int]) -> None:
        """Write the segments vehicle ``vid`` drives after its current one to its ``route`` row, from ``route_pos`` 0."""
        k = len(route)
        width = self.route.shape[1]
        if k + _HOPS > width:  # widen to the next power of two, keeping every row
            self.route = np.pad(self.route, ((0, 0), (0, (1 << (k + _HOPS - 1).bit_length()) - width)),
                                constant_values=self._sentinel)
        if k:
            self.route[vid, :k] = route
        self.route[vid, k:k + _HOPS] = self._sentinel
        self.route_len[vid] = k
        self.route_pos[vid] = 0
        self._set_stop(vid)

    def _set_stop(self, vid: int) -> None:
        """On its last leg (no strategic model, or a trip's last destination) a vehicle stops where its route ends."""
        sm, k = self._drivers[vid].strategic, self.route_len[vid]
        final = sm is None or isinstance(sm, Trip) and sm.cursor >= len(sm.destinations) - 1
        self._final[vid] = self.graph.end[self.route[vid, k - 1] if k else self.seg[vid]] if final else -1

    def _lane_table(self) -> _LaneTable:
        if self._table is None:
            n = self.n
            self._table = _LaneTable(self.graph.slot0[self.seg[:n]] + self.lane[:n], self.s[:n], self._rearmost)
        return self._table

    def _look_ahead(
        self,
        table: _LaneTable,
        blocked: np.ndarray,
        ego: np.ndarray,
        lane: np.ndarray,
        key: np.ndarray,
        slot: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closest obstruction ahead of each vehicle ``ego[k]`` in ``lane[k]`` within the horizon.

        ``key`` and ``slot`` are the pair's lane-table key and slot.  Returns
        per pair what blocks (a vehicle id, ``_STANDING`` for a blocking
        signal or the trip's final stop, ``_NONE`` when free) and the center
        distance to it along the route.  On the ego's segment that is the
        nearest vehicle strictly ahead, then the node ahead (the horizon, a
        blocking signal, the final stop, the route's end).  The pairs still
        open go through passes of ``_HOPS`` route rows.  A row is one
        segment: its rearmost vehicle in lane ``min(lane, lanes - 1)``, then
        the node at its end.  One mask marks the rows that settle (a
        vehicle, the horizon, a blocking signal, the final stop); each pair
        is decided at its first such row, and a row past its route's end is
        the sentinel segment, past any finite horizon.  Positions and route
        positions come from the columns, so ``step`` looks ahead before it
        commits any move.
        """
        horizon = self.horizon
        seg_len, seg_end, top, slot0 = self._hop_columns
        seg, s_ego = self.seg[ego], self.s[ego]
        at, stop = self.route_pos[ego], self._final[ego]  # route index of the segment after the node
        j = table.ahead(key, slot)
        ahead = j >= 0
        # a vehicle ahead on the ego's segment settles the pair, seen within
        # the horizon; otherwise the node at the segment's end, ``cum`` away:
        # past the horizon, a blocking signal or the final stop, or the route's end
        raw, cum, node = table.s[j] - s_ego, seg_len[seg] - s_ego, seg_end[seg]
        hit = np.where(ahead, np.where(raw <= horizon, table.vid[j], _NONE), np.where(
            cum > horizon, _NONE, np.where(blocked[node] | (node == stop), _STANDING, np.where(
                at == self.route_len[ego], _NONE, _OPEN))))
        raw = np.where(ahead, raw, cum)
        pair = (hit == _OPEN).nonzero()[0]
        owner, q, stop, at, cum = ego[pair], lane[pair], stop[pair], at[pair], cum[pair]
        while len(pair):
            # the next _HOPS route segments, row h being hop h: the rearmost
            # vehicle in lane min(lane, lanes - 1), then the node at the
            # segment's end, with distances summed in route order.  A row past
            # the route's end is the sentinel, which is past any finite horizon.
            nxt = self.route[owner, at + _HOP_ROWS]
            reach = np.concatenate((cum[None], seg_len[nxt])).cumsum(axis=0)
            k = table.first(slot0[nxt] + np.minimum(q, top[nxt]))
            node = seg_end[nxt]
            settle = (k >= 0) | (reach[1:] > horizon) | blocked[node] | (node == stop)
            row = settle.argmax(axis=0), np.arange(len(pair))  # each pair's first settling row
            settled, k, end = settle[row], k[row], reach[1:][row]
            seen, d = k >= 0, reach[row] + table.s[k]
            found = np.where(seen, np.where(d <= horizon, table.vid[k], _NONE),
                             np.where(end > horizon, _NONE, _STANDING))
            dist = np.where(seen, d, end)
            if settled.all():
                hit[pair], raw[pair] = found, dist
                break
            # a pair open at a sentinel row has an infinite horizon and a route that ends free
            found[~settled] = _NONE
            settled |= at + _HOPS > self.route_len[owner]
            hit[pair[settled]], raw[pair[settled]] = found[settled], dist[settled]
            go = ~settled
            pair, owner, q, stop, at, cum = pair[go], owner[go], q[go], stop[go], at[go] + _HOPS, reach[-1, go]
        return hit, raw

    # -- stepping ---------------------------------------------------------------

    def _advance_route(self, vid: int, node: int) -> bool:
        """Resolve the strategic layer at the route's last node, ``node``.

        A RandomDirection vehicle's route becomes the segment it draws; a
        trip's, the shortest path to its next destination other than
        ``node``.  Returns True when a route was installed, False when the
        vehicle is done (no further destination).
        """
        if isinstance(self._drivers[vid].strategic, RandomDirection):
            self._install(vid, [self._draw(vid, node)])
            return True
        nxt = self.strategic_next(Vehicle(self, vid), node)
        while nxt is not None:
            refs = routing.shortest_path(self.graph, node, nxt).refs
            if refs:
                self._install(vid, [ref.index for ref in refs])
                return True
            nxt = self.strategic_next(Vehicle(self, vid), node)  # destination coincides with node
        return False

    def _finish(self, vid: int, position: float | None = None) -> None:
        self.done[vid] = True
        self.v[vid] = 0.0
        self.acc[vid] = 0.0
        if position is not None:
            self.s[vid] = position

    def _settle(self, vid: int) -> None:
        """Resolve the nodes driving vehicle ``vid`` crossed, then a smooth final arrival."""
        s, seg, lane, route_pos = self.s, self.seg, self.lane, self.route_pos
        graph, seg_len = self.graph, self.graph.length
        while s[vid] > seg_len[seg[vid]]:
            leftover = s[vid] - seg_len[seg[vid]]
            node = graph.ids[graph.end[seg[vid]]]
            sig = self.signals.get(node)
            if sig is not None and signal_phase(sig, self.time) == "red":
                self.signal_violations.append(SignalViolation(self.time, vid, node))
            if route_pos[vid] == self.route_len[vid] and not self._advance_route(vid, node):
                # crossed the terminal node at speed: park at the node
                self._finish(vid, position=seg_len[seg[vid]])
                return
            seg[vid] = self.route[vid, route_pos[vid]]
            lane[vid] = min(lane[vid], graph.lanes[seg[vid]] - 1)
            s[vid] = leftover
            route_pos[vid] += 1

        # smooth final arrival: a final-leg vehicle that has braked to a stop
        # just short of its last node registers the arrival and parks there.
        if self.v[vid] < _ARRIVAL_SPEED and self._final[vid] >= 0 and route_pos[vid] == self.route_len[vid]:
            remaining = seg_len[seg[vid]] - s[vid] - self.length[vid] / 2.0
            if remaining <= self.idm.item(vid, 1) * 1.5 + 1e-9:  # s0
                if not self._advance_route(vid, graph.ids[graph.end[seg[vid]]]):
                    self._finish(vid)

    def step(self, dt: float) -> None:
        """Advance every driving vehicle by ``dt`` seconds.

        A parked or done vehicle stands with ``acc`` 0: a ``v`` written through
        a view stays as written.
        """
        if not 0 < dt < math.inf:  # also false for nan
            raise ValueError(f"dt must be finite and > 0, got {dt!r}")
        n = self.n
        table = self._lane_table()
        self._table = self._occupancy = None  # decisions change lanes; moves change positions
        s, v, lane, done, parked, length = (column[:n] for column in (
            self.s, self.v, self.lane, self.done, self.parked, self.length))
        idm = self.idm[:n].T
        free = idm[0] * (1.0 - np.fromiter(map(math.pow, (v / self.v0_eff[:n]).tolist(), self.delta[:n].tolist()),
                                           float, n))
        seg_lanes, slot0 = self.graph.lanes, self.graph.slot0

        # pairs (vehicle, lane) to look ahead in: every moving vehicle's own
        # lane, then the left and the right lanes of the MOBIL candidates
        movers = (~(parked | done)).nonzero()[0]
        m = len(movers)
        ego, shift, sides = movers, np.zeros(m, dtype=np.int64), ()
        lanes_here = seg_lanes[self.seg[movers]]
        multi = (lanes_here > 1).nonzero()[0]
        if len(multi):
            mobil = multi[~(self.time - self.last_lane_change[movers[multi]] < LANE_CHANGE_COOLDOWN)]
            cand = movers[mobil]
            left = (lane[cand] + 1 < lanes_here[mobil]).nonzero()[0]
            right = (lane[cand] > 0).nonzero()[0]
            sides = np.concatenate((left, right))  # the side pairs' candidates, as indices into ``mobil``
            ego = np.concatenate((movers, cand[sides]))
            shift = np.concatenate((shift, np.ones(len(left), dtype=np.int64), np.full(len(right), -1)))
        target = lane[ego] + shift
        key, slot = table.of[ego] + shift, slot0[self.seg[ego]] + target
        hit, raw = self._look_ahead(table, self._blocking_signals(), ego, target, key, slot)
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
        v_who = v[who]
        # take gathers the IDM rows 2-3x faster than the mixed index idm[:, who]
        acc_of = _idm_behind(free[who], v_who, idm.take(who, axis=1), v_who - ahead_v, gaps)
        a_lead = free[ego]
        a_lead[by_lead] = acc_of[:len(by_lead)]
        # every acceleration is set before any vehicle moves, so a step that
        # aborts below keeps them all
        acc = self.acc[:n]
        acc.fill(0.0)
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
                with_f & ((f_net[pair] <= 0.0) | (a_f_ego[pair] < -self.b_safe[e])))
            terms = np.where(with_f, 0.0 + (a_f_lead[pair] - a_f_ego[pair]), 0.0)
            terms = np.where(fol[own] >= 0, terms + (a_f_ego[own] - a_f_lead[own]), terms)
            surplus = (a_lead[pair] - a_lead[own]) - self.p[e] * terms - self.delta_a_th[e]
            self._change_lanes(cand, sides, len(left), ok & (surplus > 0.0), surplus, fol[pair], a_f_ego[pair])

        # the ballistic update with its stopping clamp, element-wise, for the
        # movers; a parked or done vehicle stands
        a = acc[movers]
        v_now = v[movers]
        v_new = v_now + a * dt
        ds = v_now * dt + 0.5 * a * dt * dt
        ds = np.where(ds > 0.0, ds, 0.0)
        clamp = (v_new < 0.0).nonzero()[0]
        if len(clamp):
            v_new[clamp] = 0.0
            ds[clamp] = 0.0
            braking = clamp[a[clamp] < 0.0]
            ds[braking] = v_now[braking] * v_now[braking] / (-2.0 * a[braking])
        s_new = s[movers] + ds

        # topology, for the vehicles that crossed a node or may register a
        # final arrival, in ascending id: each one's move is committed with
        # those of the vehicles before it, then its topology is resolved
        settle = (s_new > self.graph.length[self.seg[movers]]) | (
            (v_new < _ARRIVAL_SPEED) & (self._final[movers] >= 0)
            & (self.route_pos[movers] == self.route_len[movers]))
        lo = 0
        for k in settle.nonzero()[0].tolist() + [None]:
            part = slice(lo, None if k is None else k + 1)
            ids = movers[part]
            self.s[ids] = s_new[part]
            self.v[ids] = v_new[part]
            self.odometer[ids] += ds[part]
            if k is not None:
                self._settle(int(movers[k]))
                lo = k + 1
        self.time += dt
        self._scan_collisions()

    def _change_lanes(self, cand, sides, n_left, ok, surplus, follower, follower_acc) -> None:
        """Apply and record MOBIL's choice for every candidate, as :func:`mobil_decide` chooses.

        Side ``t`` belongs to candidate ``cand[sides[t]]`` (left sides first,
        ``n_left`` of them); it passes where ``ok[t]``, with ``surplus[t]``,
        and its target lane's follower (-1: none) would get ``follower_acc[t]``.
        The larger passing surplus wins and an exact tie keeps right.  Changes
        are made in the ``lane`` column and recorded in ascending id order.
        """
        if not ok.any():
            return
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
        lane, time = self.lane, self.time
        for r in (go_left | go_right).nonzero()[0].tolist():
            direction = 1 if go_left[r] else -1
            t = side[0 if direction == 1 else 1, r]
            fid = int(follower[t])
            vid = int(cand[r])
            from_lane = lane.item(vid)
            self.lane_changes.append(
                LaneChangeRecord(
                    time=time,
                    vehicle_id=vid,
                    from_lane=from_lane,
                    to_lane=from_lane + direction,
                    follower_id=fid if fid >= 0 else None,
                    follower_acc_after=float(follower_acc[t]) if fid >= 0 else None,
                )
            )
            lane[vid] = from_lane + direction
            self.last_lane_change[vid] = time

    def _scan_collisions(self) -> None:
        """Sort the moved vehicles into the next step's lane table and record overlapping neighbours.

        Records go lane by lane, in the order of each lane's lowest vehicle
        id, and rear to front within a lane.
        """
        table = self._lane_table()
        n = self.n
        length = self.length[:n]
        slot, vid = table.slot[:n], table.vid[:n]
        gap = (table.s[1:n] - table.s[:n - 1]) - (length[vid[:-1]] + length[vid[1:]]) / 2.0
        hits = ((slot[1:] == slot[:-1]) & (gap <= 0.0)).nonzero()[0]
        if not len(hits):
            return
        runs = np.concatenate(([True], slot[1:] != slot[:-1])).nonzero()[0]  # first entry of each lane
        lowest = np.minimum.reduceat(vid, runs)[np.searchsorted(runs, hits, "right") - 1]
        for k in hits[np.lexsort((hits, lowest))].tolist():
            self.collisions.append(CollisionRecord(self.time, int(vid[k]), int(vid[k + 1]), float(gap[k])))
