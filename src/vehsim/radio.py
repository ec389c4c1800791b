"""Passive cellular layer: RSSI, cell attachment, handover bookkeeping.

Signal strength follows a log-distance path-loss law anchored at a 1 m
free-space reference; attachment is strongest-cell with hysteresis and a
time-to-trigger, evaluated once per mobility step so that the handover
sequence does not depend on how often traces are sampled.  Nothing here
feeds back into vehicle motion.

``RadioObserver.observe_all`` evaluates one (vehicles x stations) RSSI matrix
per step.  It is bit-identical to the scalar ``rssi`` by construction, so a
batch never moves an output byte: per-station constants are computed once,
NumPy does only IEEE basic operations (``-``, ``+``, ``*``, ``/``,
``maximum``, ``argmax``) in the scalar association
``tx - (ref + k * log10(d))``, and the distance and logarithm go element-wise
through ``math.hypot`` and ``math.log10``.  ``np.hypot`` and ``np.log10`` are
not used because they round differently: over 200 000 uniform offsets within
2 km (NumPy 2.4, CPython 3.11, x86-64) ``np.hypot`` differed from
``math.hypot`` on 0.6 % of inputs and ``np.log10`` from ``math.log10`` on
3.5 %, each by at most 1 ulp; the hypot differences still moved 0.05 % of
the final RSSI values.  Shadowing draws ``normal(size=k)`` blocks,
which yield exactly the values of k scalar draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


class _Shadowing:
    """One vehicle's shadowing stream, drawn up to ``_SHADOW_ROWS`` updates at a time.

    ``normal(size=k)`` yields the same values as k scalar ``normal`` calls, so
    drawing ahead changes no number, only the call count.  Unused rows are
    never read, and the stream belongs to this vehicle alone.  The first
    block is 1 + vehicle_id % _SHADOW_ROWS rows long: vehicles observed from
    the same step on then refill on different steps, instead of all at once
    in one slow step every _SHADOW_ROWS.
    """

    __slots__ = ("rng", "sigma", "n_stations", "block", "row", "rows")

    def __init__(self, rng: np.random.Generator, sigma: float, n_stations: int, vehicle_id: int) -> None:
        self.rng = rng
        self.sigma = sigma
        self.n_stations = n_stations
        self.block = np.empty((0, n_stations))
        self.row = 0
        self.rows = 1 + vehicle_id % _SHADOW_ROWS

    def next_row(self) -> np.ndarray:
        if self.row == len(self.block):
            self.block = self.rng.normal(0.0, self.sigma, size=(self.rows, self.n_stations))
            self.row = 0
            self.rows = _SHADOW_ROWS
        row = self.block[self.row]
        self.row += 1
        return row


class RadioObserver:
    """Tracks per-vehicle attachment against a fixed station set.

    ``observe_all`` (or ``update`` for one vehicle) must be called for every
    vehicle after every mobility step; a candidate cell must beat the serving
    cell by more than the hysteresis margin continuously for the whole
    time-to-trigger before the handover completes.  A different candidate
    appearing restarts the trigger timer.  The first update attaches to the
    strongest cell with no hysteresis and no event.  Equal levels resolve to
    the smaller station id.

    Optional log-normal shadowing draws one value per station per update
    from a per-vehicle stream; with sigma = 0 (default) no draws happen and
    measurements are pure path loss.
    """

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
        self._candidate: dict[int, tuple[str, float]] = {}  # vehicle -> (cell, since)
        self._last_levels: dict[int, list[float]] = {}  # vehicle -> level per station, id order
        self._shadow_rng: dict[int, _Shadowing] = {}
        # per-station constants of rssi(), in id order
        self._ids = [s.id for s in self.stations]
        self._index = {cid: i for i, cid in enumerate(self._ids)}
        self._x = np.array([s.x for s in self.stations], dtype=float)
        self._y = np.array([s.y for s in self.stations], dtype=float)
        self._tx = np.array([s.tx_power_dbm for s in self.stations], dtype=float)
        self._ref = np.array([reference_loss_db(s.carrier_mhz) for s in self.stations])
        self._k = 10.0 * path_loss_exponent

    def _levels(self, ids, xs, ys) -> np.ndarray:
        """(vehicles x stations) RSSI in dBm, bit-identical to ``rssi`` plus shadowing."""
        n = len(ids) * len(self._ids)
        dx = (np.asarray(xs, dtype=float)[:, None] - self._x).ravel().tolist()
        dy = (np.asarray(ys, dtype=float)[:, None] - self._y).ravel().tolist()
        d = np.maximum(np.fromiter(map(math.hypot, dx, dy), float, n), D_REF_M) / D_REF_M
        log_d = np.fromiter(map(math.log10, d.tolist()), float, n).reshape(len(ids), -1)
        levels = self._tx - (self._ref + self._k * log_d)
        if self.shadowing_sigma_db > 0.0:
            levels += np.array([self._shadowing(vid).next_row() for vid in ids])
        return levels

    def _shadowing(self, vehicle_id: int) -> _Shadowing:
        stream = self._shadow_rng.get(vehicle_id)
        if stream is None:
            rng = substream(self.seed, "shadowing", vehicle_id)
            stream = _Shadowing(rng, self.shadowing_sigma_db, len(self._ids), vehicle_id)
            self._shadow_rng[vehicle_id] = stream
        return stream

    def measure(self, vehicle_id: int, x: float, y: float) -> dict[str, float]:
        """RSSI per station id at (x, y), including shadowing when enabled."""
        return dict(zip(self._ids, self._levels((vehicle_id,), (x,), (y,))[0].tolist()))

    def observe_all(self, ids, xs, ys, t: float) -> list[HandoverEvent]:
        """Re-evaluate the attachment of every listed vehicle at time ``t``.

        ``ids``, ``xs`` and ``ys`` are parallel sequences.  The result equals
        calling ``update`` for each row in order: the handovers completed at
        ``t``, in row order.
        """
        if not len(ids) == len(xs) == len(ys):
            raise ValueError("ids, xs and ys must have the same length")
        if not len(ids):
            return []
        levels = self._levels(ids, xs, ys)
        strongest = levels.argmax(axis=1).tolist()  # first maximum: the smaller id
        events = []
        for vid, row, best, x, y in zip(ids, levels.tolist(), strongest, xs, ys):
            self._last_levels[vid] = row
            att = self.attachments.get(vid)
            if att is None:
                self.attachments[vid] = Attachment(vid, self._ids[best])
                continue
            serving = self._index[att.serving_cell]
            if best == serving or row[best] <= row[serving] + self.hysteresis_db:
                self._candidate.pop(vid, None)
                continue
            cell = self._ids[best]
            cand = self._candidate.get(vid)
            if cand is None or cand[0] != cell:
                cand = self._candidate[vid] = (cell, t)
            if t - cand[1] >= self.time_to_trigger_s - _TTT_SLACK:
                event = HandoverEvent(t, vid, att.serving_cell, cell, float(x), float(y))
                att.serving_cell = cell
                att.history.append(event)
                del self._candidate[vid]
                events.append(event)
        return events

    def update(self, vehicle_id: int, x: float, y: float, t: float) -> HandoverEvent | None:
        """Re-evaluate the attachment of one vehicle; returns a completed handover."""
        events = self.observe_all((vehicle_id,), (x,), (y,), t)
        return events[0] if events else None

    def current(self, vehicle_id: int) -> tuple[str, float] | None:
        """(serving cell, its RSSI at the last update) or None before any update."""
        att = self.attachments.get(vehicle_id)
        if att is None:
            return None
        return att.serving_cell, self._last_levels[vehicle_id][self._index[att.serving_cell]]
