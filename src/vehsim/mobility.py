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
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import routing
from .osm import RoadGraph, Segment, SegmentRef, signal_phase
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
    def segment(self) -> Segment:
        return self.ref.segment

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


class World:
    """Owns all vehicles and advances them on one shared timeline.

    ``step`` applies one fixed time slice: decisions for every vehicle are
    computed from the start-of-step snapshot in ascending id order, then
    positions are integrated and route topology (segment crossings, arrivals,
    rerouting) is resolved.  Update order therefore cannot change the physics.

    Between steps, vehicle state changes only through ``step`` and ``spawn``,
    so the lane registry built after one step's moves is kept as the next
    step's start-of-step snapshot; ``spawn`` discards it.  The set of nodes
    whose signal blocks (yellow or red) is built once per ``step`` and once
    per ``perceive_leader`` call, so a signal added or retimed between steps
    takes effect at the next step.
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
        self._next_id = 0
        self._order: list[Vehicle] = []  # ascending id, maintained at spawn
        self._registry: dict | None = None  # lane registry of the current state
        self._lane_lists: list[list[tuple[float, int]]] = []  # its lanes, first-seen order
        # (x0, dx, y0, dy) from start node to end node, per occupied directed segment
        self._geometry: dict[tuple[int, int, bool], tuple[float, float, float, float]] = {}

    # -- population ---------------------------------------------------------

    @property
    def next_vehicle_id(self) -> int:
        return self._next_id

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

        vid = self._next_id
        self._next_id += 1
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
        self._order.append(vehicle)
        self._registry = None
        return vehicle

    def lane_is_clear(self, ref: SegmentRef, lane: int, s: float, margin: float) -> bool:
        """True when no vehicle occupies (ref, lane) within ``margin`` meters of s."""
        for veh in self._order:
            if veh.ref.key == ref.key and veh.lane == lane and abs(veh.s - s) < margin:
                return False
        return True

    # -- perception -----------------------------------------------------------

    def _is_final_leg(self, vehicle: Vehicle) -> bool:
        sm = vehicle.strategic
        if isinstance(sm, RandomDirection):
            return False
        if isinstance(sm, Trip):
            return sm.cursor >= len(sm.destinations) - 1
        return True  # no strategic model: stop at the end of the route

    def _blocking_signals(self) -> set[int]:
        """Nodes whose signal is yellow or red at the current time."""
        t = self.time
        return {node for node, sig in self.signals.items() if signal_phase(sig, t) != "green"}

    @staticmethod
    def _scan_after(entries: list[tuple[float, int]] | None, lo: float) -> tuple[float, int] | None:
        """First (s, vehicle id) strictly after position ``lo`` in a lane registry."""
        if not entries:
            return None
        i = bisect_right(entries, (lo, math.inf))
        if i < len(entries):
            return entries[i]
        return None

    def _vehicle_ahead(self, vid: int, raw_dist: float) -> Neighbor:
        other = self.vehicles[vid]
        return Neighbor(raw_dist, other.v, other.length, vehicle_id=vid)

    def _nearest_obstruction(
        self, snap: dict, blocked: set[int], vehicle: Vehicle, lane: int
    ) -> Neighbor | None:
        """Closest blocking thing ahead of the vehicle in ``lane`` within the horizon.

        ``blocked`` holds the nodes whose signal is not green (see
        :meth:`_blocking_signals`).
        """
        ref = vehicle.ref
        s = vehicle.s
        horizon = self.horizon
        hit = self._scan_after(snap[ref.key].get(lane), s)
        if hit is not None and hit[0] - s <= horizon:
            return self._vehicle_ahead(hit[1], hit[0] - s)

        route = vehicle.route
        final_node = route.node_ids[-1] if self._is_final_leg(vehicle) else None
        cum = ref.length - s  # ego center to the end node of the current segment
        refs = route.refs
        i = vehicle.route_pos
        end_node = ref.end_node
        while cum <= horizon:
            if end_node in blocked:
                return Neighbor(cum, 0.0, 0.0, kind="signal")
            if end_node == final_node:
                return Neighbor(cum, 0.0, 0.0, kind="stop")
            if i == len(refs):
                return None  # route ends here; beyond is undecided
            nxt = refs[i]
            i += 1
            lanes = snap.get(nxt.key)
            if lanes is not None:
                hit = self._scan_after(lanes.get(min(lane, nxt.lanes - 1)), -1.0)
                if hit is not None:
                    if cum + hit[0] > horizon:
                        return None
                    return self._vehicle_ahead(hit[1], cum + hit[0])
            cum += nxt.length
            end_node = nxt.end_node
        return None

    def _follower_neighbor(self, snap: dict, vehicle: Vehicle, lane: int) -> Neighbor | None:
        """Nearest vehicle behind on the current segment in ``lane`` (segment-local)."""
        entries = snap[vehicle.ref.key].get(lane)
        if not entries:
            return None
        i = bisect_right(entries, (vehicle.s, -math.inf)) - 1
        while i >= 0:
            s_j, vid = entries[i]
            if vid != vehicle.id:
                other = self.vehicles[vid]
                return Neighbor(s_j - vehicle.s, other.v, other.length, other.idm, other.v0_eff, vid)
            i -= 1
        return None

    def perceive_leader(self, vehicle: Vehicle) -> tuple[float, float] | None:
        """(net gap, approach rate) to the nearest obstruction ahead, or None when free.

        The scan follows the vehicle's route across segment boundaries up to
        the perception horizon.  Yellow/red signals at upcoming nodes count as
        standing leaders at the stop line; green signals are invisible.
        """
        snap = self._lane_registry()
        leader = self._nearest_obstruction(snap, self._blocking_signals(), vehicle, vehicle.lane)
        if leader is None:
            return None
        return _net_gap(vehicle.length, leader), vehicle.v - leader.v

    def position(self, vehicle: Vehicle) -> tuple[float, float]:
        """World coordinates of the vehicle center (lane offsets are ignored)."""
        ref = vehicle.ref
        geometry = self._geometry.get(ref.key)
        if geometry is None:  # the graph is immutable, so a cached entry never goes stale
            a = self.graph.node(ref.start_node)
            b = self.graph.node(ref.end_node)
            geometry = self._geometry[ref.key] = (a.x, b.x - a.x, a.y, b.y - a.y)
        x0, dx, y0, dy = geometry
        frac = min(max(vehicle.s / ref.length, 0.0), 1.0)
        return x0 + frac * dx, y0 + frac * dy

    # -- strategic layer ------------------------------------------------------

    def strategic_next(self, vehicle: Vehicle, arrived_at: int) -> int | None:
        """Next destination node after arriving at ``arrived_at``; None when done."""
        sm = vehicle.strategic
        if sm is None:
            return None
        if isinstance(sm, Trip):
            vehicle.arrivals.append((self.time, arrived_at))
            sm.cursor += 1
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

    # -- stepping ---------------------------------------------------------------

    def _lane_registry(self) -> dict:
        """ref key -> {lane: sorted [(s, id)]}; kept until the state changes.

        ``_lane_lists`` holds the same lane lists in the order their first
        vehicle (by id) was met, which fixes the collision scan's record order.
        """
        if self._registry is None:
            snap: dict[tuple[int, int, bool], dict[int, list[tuple[float, int]]]] = {}
            lane_lists = []
            for veh in self._order:
                by_lane = snap.get(veh.ref.key)
                if by_lane is None:
                    by_lane = snap[veh.ref.key] = {}
                entries = by_lane.get(veh.lane)
                if entries is None:
                    entries = by_lane[veh.lane] = []
                    lane_lists.append(entries)
                entries.append((veh.s, veh.id))
            for entries in lane_lists:
                entries.sort()
            self._registry = snap
            self._lane_lists = lane_lists
        return self._registry

    def _decide(self, snap: dict, blocked: set[int], vehicle: Vehicle) -> None:
        """Longitudinal acceleration plus an optional immediate lane change."""
        leader = self._nearest_obstruction(snap, blocked, vehicle, vehicle.lane)
        vehicle.acc = _acc_behind(vehicle, leader)

        ref = vehicle.ref
        if ref.lanes <= 1 or self.time - vehicle.last_lane_change < LANE_CHANGE_COOLDOWN:
            return
        current = LaneNeighbors(leader, self._follower_neighbor(snap, vehicle, vehicle.lane))
        sides: dict[int, LaneNeighbors | None] = {+1: None, -1: None}
        for direction in (+1, -1):
            lane2 = vehicle.lane + direction
            if 0 <= lane2 < ref.lanes:
                sides[direction] = LaneNeighbors(
                    self._nearest_obstruction(snap, blocked, vehicle, lane2),
                    self._follower_neighbor(snap, vehicle, lane2),
                )
        decision, acc_after = mobil_decide(
            vehicle, vehicle.acc, NeighborContext(current, sides[+1], sides[-1])
        )
        if decision == 0:
            return
        follower = sides[decision].follower
        self.lane_changes.append(
            LaneChangeRecord(
                time=self.time,
                vehicle_id=vehicle.id,
                from_lane=vehicle.lane,
                to_lane=vehicle.lane + decision,
                follower_id=follower.vehicle_id if follower else None,
                follower_acc_after=acc_after,
            )
        )
        vehicle.lane += decision
        vehicle.last_lane_change = self.time

    def _advance_route(self, vehicle: Vehicle, node: int) -> bool:
        """Resolve the strategic layer at a route's terminal node.

        Returns True when a fresh multi-node route was installed, False when
        the vehicle is done (no further destination).
        """
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

    def _move(self, vehicle: Vehicle, dt: float) -> None:
        ds, v_new = ballistic_update(vehicle.v, vehicle.acc, dt)
        vehicle.s += ds
        vehicle.odometer += ds
        vehicle.v = v_new

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

    def _scan_collisions(self) -> None:
        self._lane_registry()
        for entries in self._lane_lists:
            for (s_rear, rear_id), (s_front, front_id) in zip(entries, entries[1:]):
                rear = self.vehicles[rear_id]
                front = self.vehicles[front_id]
                gap = (s_front - s_rear) - (rear.length + front.length) / 2.0
                if gap <= 0.0:
                    self.collisions.append(CollisionRecord(self.time, rear_id, front_id, gap))

    def step(self, dt: float) -> None:
        """Advance every vehicle by ``dt`` seconds."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        snap = self._lane_registry()
        self._registry = None  # decisions change lanes; moves change positions
        blocked = self._blocking_signals()
        for vehicle in self._order:
            if vehicle.parked:
                vehicle.acc = 0.0
                continue
            if vehicle.done:
                vehicle.acc = -vehicle.idm.b_comf if vehicle.v > 0 else 0.0
                continue
            self._decide(snap, blocked, vehicle)
        for vehicle in self._order:
            if vehicle.parked:
                continue
            if vehicle.done:
                if vehicle.v > 0:  # rare clamp-stop case: bleed off speed in place
                    vehicle.v = max(0.0, vehicle.v + vehicle.acc * dt)
                continue
            self._move(vehicle, dt)
        self.time += dt
        self._scan_collisions()
