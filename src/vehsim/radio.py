"""Passive cellular layer: RSSI, cell attachment, handover bookkeeping.

Signal strength follows a log-distance path-loss law anchored at a 1 m
free-space reference; attachment is strongest-cell with hysteresis and a
time-to-trigger, evaluated once per mobility step so that the handover
sequence does not depend on how often traces are sampled.  Nothing here
feeds back into vehicle motion.

``RadioObserver.observe_all`` handles one batch of vehicles per step as
arrays over vehicle rows: it first ranks the stations, then computes exactly
only the levels it uses.  Every level that is stored, compared or returned is
bit-identical to the scalar ``rssi`` (plus shadowing): per-station constants
are computed once, NumPy does only IEEE basic operations (``-``, ``+``,
``*``, ``/``, ``maximum``, comparisons) in the scalar association
``tx - (ref + k * log10(d))``, and the distance and logarithm go element-wise
through ``math.hypot`` and ``math.log10``.  ``np.hypot`` and ``np.log10``
round differently: over 200 000 uniform offsets within 2 km (NumPy 2.4,
CPython 3.11, x86-64) ``np.hypot`` differed from ``math.hypot`` on 0.6 % of
inputs and ``np.log10`` from ``math.log10`` on 3.5 %, each by at most 1 ulp,
and the hypot differences still moved 0.05 % of the final RSSI values.

So the NumPy functions serve only to rank.  Over 4 M offsets from 3 m to
30 km, under three carrier/exponent pairs, the largest |NumPy - exact| level
was 2.8e-14 dB.  Both paths apply the same operations to values at most a few
ulps apart, so the gap is bounded by a few ulps of the largest term summed:
|tx|, |reference loss|, k times log10(d) (at most 309 for any finite d, plus
one for the ulp of d) and |shadowing|.  The ranking margin is
``_RANK_MARGIN_DB`` (1e-6 dB, 10^7 times the measured gap) plus 2^-46 times
the sum of those terms, the largest shadowing value drawn so far standing in
for the last one.  With the default model that second part is about 1e-9 dB;
it grows with absurd transmit powers, exponents or sigmas, where an ulp of a
level exceeds 1e-6 dB.  Per vehicle, every station whose ranked level is
within the margin of the ranked strongest one is computed exactly, and so is
the serving station.  Every other station is ranked at least the margin
below the strongest, so it is exactly weaker than the exact strongest level.
The exact strongest station is therefore always among the exact values,
exact ties included, and equal levels still resolve to the smaller station
id.  Most rows need one or two exact values instead of one per station.

Shadowing draws ``normal(size=k)`` blocks, which yield exactly the values of
k scalar draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .rng import substream

SPEED_OF_LIGHT = 3.0e8  # m/s
D_REF_M = 1.0  # path-loss reference distance
DEFAULT_TX_POWER_DBM = 46.0
DEFAULT_CARRIER_MHZ = 1800.0
DEFAULT_PATH_LOSS_EXPONENT = 3.5  # urban macro default
DEFAULT_HYSTERESIS_DB = 3.0
DEFAULT_TIME_TO_TRIGGER_S = 1.0
DEFAULT_PINGPONG_WINDOW_S = 10.0
_TTT_SLACK = 1e-12  # absorbs float drift when comparing elapsed time to TTT
_SHADOW_ROWS = 64  # updates of shadowing drawn per vehicle at a time
_RANK_MARGIN_DB = 1e-6  # ranked levels closer than this are settled by exact ones
_RANK_ULPS = 2.0**-46  # per unit of the summed level terms, added to the margin
_LOG_D_MAX = 309.0  # log10 of the largest finite distance


@dataclass(frozen=True)
class BaseStation:
    """Omnidirectional transmitter at a fixed map position."""

    id: str
    x: float
    y: float
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    carrier_mhz: float = DEFAULT_CARRIER_MHZ

    def __post_init__(self) -> None:
        for name in ("x", "y", "tx_power_dbm", "carrier_mhz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"station {self.id}: {name} must be finite")
        if self.tx_power_dbm <= 0:
            raise ValueError(f"station {self.id}: tx_power must be > 0 dBm")
        if self.carrier_mhz <= 0:
            raise ValueError(f"station {self.id}: carrier must be > 0 MHz")


def reference_loss_db(carrier_mhz: float) -> float:
    """Free-space path loss at the 1 m reference distance."""
    f_hz = carrier_mhz * 1e6
    return 20.0 * math.log10(4.0 * math.pi * D_REF_M * f_hz / SPEED_OF_LIGHT)


def rssi(
    station: BaseStation,
    x: float,
    y: float,
    *,
    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT,
) -> float:
    """Received signal strength (dBm) at (x, y) from ``station``.

    Log-distance model: tx_power − [PL(d_ref) + 10·n·log10(d/d_ref)] with the
    distance floored at d_ref, so the value is finite everywhere.
    """
    d = max(math.hypot(x - station.x, y - station.y), D_REF_M)
    loss = reference_loss_db(station.carrier_mhz) + 10.0 * path_loss_exponent * math.log10(d / D_REF_M)
    return station.tx_power_dbm - loss


@dataclass(frozen=True)
class HandoverEvent:
    """Completed change of serving cell."""

    time: float
    vehicle_id: int
    from_cell: str
    to_cell: str
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.from_cell == self.to_cell:
            raise ValueError("handover must change the serving cell")


@dataclass
class Attachment:
    """Current serving cell of one vehicle plus its handover history."""

    vehicle_id: int
    serving_cell: str
    history: list[HandoverEvent] = field(default_factory=list)


def detect_ping_pong(history: list[HandoverEvent], window_s: float) -> list[tuple[float, str, str]]:
    """Flag every A→B followed by B→A within ``window_s``.

    ``history`` must be time-ordered (as produced by :class:`RadioObserver`).
    Returns (time of the returning handover, cell A, cell B) per occurrence.
    """
    flagged = []
    for first, second in zip(history, history[1:]):
        if (
            first.to_cell == second.from_cell
            and second.to_cell == first.from_cell
            and second.time - first.time <= window_s
        ):
            flagged.append((second.time, first.from_cell, first.to_cell))
    return flagged


def _exact_log_d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``rssi``'s log10(d / d_ref) per offset: ``math.hypot`` and ``math.log10`` element-wise."""
    n = dx.size
    d = np.maximum(np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), float, n), D_REF_M)
    return np.fromiter(map(math.log10, (d / D_REF_M).tolist()), float, n).reshape(dx.shape)


class RadioObserver:
    """Tracks per-vehicle attachment against a fixed station set.

    ``observe_all`` (or ``update`` for one vehicle) must be called for every
    vehicle after every mobility step; a candidate cell must beat the serving
    cell by more than the hysteresis margin continuously for the whole
    time-to-trigger before the handover completes.  A different candidate
    appearing restarts the trigger timer.  The first update attaches to the
    strongest cell with no hysteresis and no event.  Equal levels resolve to
    the smaller station id.  One batch may not list a vehicle twice.

    Optional log-normal shadowing draws one value per station per update
    from a per-vehicle stream; with sigma = 0 (default) no draws happen and
    measurements are pure path loss.  The first block a stream draws is
    1 + vehicle_id % _SHADOW_ROWS updates long and every later one
    _SHADOW_ROWS: vehicles observed from the same step on then refill on
    different steps, instead of all at once in one slow step.

    State is kept in columns over vehicle rows, in the order vehicles are
    first seen: serving and candidate station index (-1 for none), candidate
    start time, serving level, last position and shadowing row, and each
    row's shadowing block with its read pointer.  Stations are ranked with
    NumPy, then the levels that are compared or stored are computed exactly
    (see the module docstring).  ``attachments`` is written only at first
    attachments and completed handovers.
    """

    _COLUMNS = ("_serving", "_candidate", "_since", "_level", "_px", "_py", "_shadow", "_block",
                "_block_len", "_pointer")

    def __init__(
        self,
        stations: list[BaseStation],
        *,
        hysteresis_db: float = DEFAULT_HYSTERESIS_DB,
        time_to_trigger_s: float = DEFAULT_TIME_TO_TRIGGER_S,
        path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT,
        shadowing_sigma_db: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not stations:
            raise ValueError("at least one base station required")
        ids = [s.id for s in stations]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate station ids")
        # the bounds load_config enforces on the radio.* keys
        for name, value, strict in (
            ("hysteresis_db", hysteresis_db, False),
            ("time_to_trigger_s", time_to_trigger_s, False),
            ("path_loss_exponent", path_loss_exponent, True),
            ("shadowing_sigma_db", shadowing_sigma_db, False),
        ):
            if not math.isfinite(value) or value < 0 or (strict and value == 0):
                raise ValueError(f"{name} must be {'>' if strict else '>='} 0, got {value!r}")
        self.stations = sorted(stations, key=lambda s: s.id)
        self.hysteresis_db = hysteresis_db
        self.time_to_trigger_s = time_to_trigger_s
        self.path_loss_exponent = path_loss_exponent
        self.shadowing_sigma_db = shadowing_sigma_db
        self.seed = seed
        self.attachments: dict[int, Attachment] = {}
        # per-station constants of rssi(), in id order, as columns over vehicles
        self._ids = [s.id for s in self.stations]
        self._x = np.array([[s.x] for s in self.stations], dtype=float)
        self._y = np.array([[s.y] for s in self.stations], dtype=float)
        self._tx = np.array([[s.tx_power_dbm] for s in self.stations], dtype=float)
        self._ref = np.array([[reference_loss_db(s.carrier_mhz)] for s in self.stations])
        self._k = 10.0 * path_loss_exponent
        # the level terms the ranking margin scales with; the shadowing term grows at each refill
        self._terms = float(np.abs(self._tx).max() + np.abs(self._ref).max()) + self._k * (_LOG_D_MAX + 1.0)
        self._shadow_max = 0.0
        # per-vehicle columns, row = order of first observation, grown by doubling
        n_st, rows = len(self.stations), 16
        depth = _SHADOW_ROWS if shadowing_sigma_db > 0.0 else 0
        self._row: dict[int, int] = {}
        self._streams: list[np.random.Generator] = []  # shadowing stream per row
        self._serving = np.empty(rows, dtype=np.intp)
        self._candidate = np.empty(rows, dtype=np.intp)
        self._since = np.empty(rows)
        self._level = np.empty(rows)  # serving level at the last update
        self._px = np.empty(rows)
        self._py = np.empty(rows)
        self._shadow = np.empty((rows, n_st))  # shadowing row of the last update
        self._block = np.empty((rows, depth, n_st))
        self._block_len = np.empty(rows, dtype=np.intp)
        self._pointer = np.empty(rows, dtype=np.intp)  # next unread row of the block

    def _rows(self, ids) -> np.ndarray:
        """Row of each listed vehicle; vehicles seen for the first time get one."""
        try:
            return np.fromiter(map(self._row.__getitem__, ids), np.intp, len(ids))
        except KeyError:
            return np.array([self._row[vid] if vid in self._row else self._add_row(vid) for vid in ids], np.intp)

    def _add_row(self, vehicle_id: int) -> int:
        row = self._row[vehicle_id] = len(self._row)
        if row == len(self._serving):
            for name in self._COLUMNS:
                old = getattr(self, name)
                new = np.empty((2 * row,) + old.shape[1:], dtype=old.dtype)
                new[:row] = old
                setattr(self, name, new)
        self._serving[row] = self._candidate[row] = -1
        self._since[row] = 0.0
        self._pointer[row] = 0
        if self.shadowing_sigma_db > 0.0:
            self._streams.append(substream(self.seed, "shadowing", vehicle_id))
            self._refill(row, 1 + vehicle_id % _SHADOW_ROWS)
        return row

    def _refill(self, row: int, length: int) -> None:
        block = self._streams[row].normal(0.0, self.shadowing_sigma_db, size=(length, len(self._ids)))
        self._block[row, :length] = block
        self._block_len[row] = length
        self._shadow_max = max(self._shadow_max, float(np.abs(block).max()))

    def _draw(self, rows: np.ndarray) -> np.ndarray | None:
        """Next shadowing row of each listed row, as (stations x rows); None without shadowing."""
        if self.shadowing_sigma_db <= 0.0:
            return None
        pointer = self._pointer[rows]
        due = pointer == self._block_len[rows]
        for row in rows[due].tolist():
            self._refill(row, _SHADOW_ROWS)
        pointer[due] = 0
        self._pointer[rows] = pointer + 1
        return self._block[rows, pointer].T

    def _levels(self, log_d: np.ndarray, shadow: np.ndarray | None) -> np.ndarray:
        """``rssi``'s association on (stations x vehicles) arrays, plus shadowing."""
        levels = self._tx - (self._ref + self._k * log_d)
        if shadow is not None:
            levels += shadow
        return levels

    def measure(self, vehicle_id: int, x: float, y: float) -> dict[str, float]:
        """RSSI per station id at (x, y), including shadowing when enabled."""
        shadow = self._draw(self._rows((vehicle_id,)))
        levels = self._levels(_exact_log_d(x - self._x, y - self._y), shadow)
        return dict(zip(self._ids, levels[:, 0].tolist()))

    def last_levels(self, vehicle_id: int) -> list[float] | None:
        """RSSI per station, in id order, at the vehicle's last update; None before any."""
        row = self._row.get(vehicle_id)
        if row is None or self._serving[row] < 0:
            return None
        shadow = self._shadow[row][:, None] if self.shadowing_sigma_db > 0.0 else None
        return self._levels(_exact_log_d(self._px[row] - self._x, self._py[row] - self._y), shadow)[:, 0].tolist()

    def observe_all(self, ids, xs, ys, t: float) -> list[HandoverEvent]:
        """Re-evaluate the attachment of every listed vehicle at time ``t``.

        ``ids``, ``xs`` and ``ys`` are parallel sequences, and no id may be
        listed twice.  The result equals calling ``update`` for each row in
        order: the handovers completed at ``t``, in row order.
        """
        ids = list(ids)
        n = len(ids)
        x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if not n == len(x) == len(y):
            raise ValueError("ids, xs and ys must have the same length")
        if not n:
            return []
        if len(set(ids)) != n:
            raise ValueError("duplicate vehicle ids in one batch")
        rows = self._rows(ids)
        shadow = self._draw(rows)
        dx, dy = x - self._x, y - self._y  # (stations x vehicles)

        # rank with NumPy, then make exact every level that may be the strongest or serves
        log_d = np.log10(np.maximum(np.hypot(dx, dy), D_REF_M) / D_REF_M)
        ranked = self._levels(log_d, shadow)
        margin = _RANK_MARGIN_DB + _RANK_ULPS * (self._terms + self._shadow_max)
        exact = ranked >= ranked.max(axis=0) - margin
        serving = self._serving[rows]
        served = serving * n + np.arange(n)  # flat (station, vehicle) index; -1 wraps to the last station
        exact.ravel()[served] = True
        at = np.flatnonzero(exact)
        log_d.ravel()[at] = _exact_log_d(dx.ravel()[at], dy.ravel()[at])
        levels = self._levels(log_d, shadow)
        best = levels.argmax(axis=0)  # first maximum: the smaller id
        best_level = levels.max(axis=0)
        serving_level = levels.ravel()[served]

        # best == serving needs no test of its own: x <= x + hysteresis when hysteresis >= 0
        attached = serving >= 0
        candidate = np.where(attached & ~(best_level <= serving_level + self.hysteresis_db), best, -1)
        since = np.where(candidate != self._candidate[rows], t, self._since[rows])
        fire = (candidate >= 0) & (t - since >= self.time_to_trigger_s - _TTT_SLACK)
        switch = fire | ~attached
        self._candidate[rows] = np.where(fire, -1, candidate)
        self._since[rows] = since
        self._serving[rows] = np.where(switch, best, serving)
        self._level[rows] = np.where(switch, best_level, serving_level)
        self._px[rows], self._py[rows] = x, y
        if shadow is not None:
            self._shadow[rows] = shadow.T

        events = []
        for i in np.flatnonzero(switch).tolist():
            vid, cell = ids[i], self._ids[best[i]]
            if not attached[i]:
                self.attachments[vid] = Attachment(vid, cell)
                continue
            event = HandoverEvent(t, vid, self._ids[serving[i]], cell, float(x[i]), float(y[i]))
            att = self.attachments[vid]
            att.serving_cell = cell
            att.history.append(event)
            events.append(event)
        return events

    def update(self, vehicle_id: int, x: float, y: float, t: float) -> HandoverEvent | None:
        """Re-evaluate the attachment of one vehicle; returns a completed handover."""
        events = self.observe_all((vehicle_id,), (x,), (y,), t)
        return events[0] if events else None

    def current(self, vehicle_id: int) -> tuple[str, float] | None:
        """(serving cell, its RSSI at the last update) or None before any update."""
        return self.current_all((vehicle_id,))[0]

    def current_all(self, ids) -> list[tuple[str, float] | None]:
        """:meth:`current` of every listed vehicle, read from the columns at once."""
        rows = np.fromiter(map(self._row.get, ids, repeat(-1)), np.intp)
        serving = np.where(rows >= 0, self._serving[rows], -1).tolist()
        return [None if s < 0 else (self._ids[s], level) for s, level in zip(serving, self._level[rows].tolist())]
