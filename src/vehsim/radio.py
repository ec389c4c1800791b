"""Passive cellular layer: RSSI, cell attachment, handover detection.

Signal strength follows a log-distance path-loss law anchored at a 1 m
free-space reference; attachment is strongest-cell with hysteresis and a
time-to-trigger, evaluated once per mobility step so that the handover
sequence does not depend on how often traces are sampled.  Nothing here
feeds back into vehicle motion.

``RadioObserver.observe_all`` handles one batch of vehicles per step as
arrays over vehicle rows: it ranks the stations with NumPy and computes exact
levels only where the ranking leaves a choice open.  Every level returned is
bit-identical to the scalar ``rssi`` (plus shadowing), every level written is
that value's ``'%.2f'``, and every comparison has the outcome exact levels
give: NumPy does only IEEE basic
operations (``-``, ``+``, ``*``, ``/``, ``maximum``, comparisons) in the
scalar association ``tx - (ref + k * log10(d))``, and exact distances and
logarithms go through ``math.hypot`` and ``math.log10``.  ``np.hypot`` and
``np.log10`` round differently: over 200 000 uniform offsets within 2 km
(NumPy 2.4, CPython 3.11, x86-64) ``np.hypot`` differed from ``math.hypot`` on
0.6 % of inputs and ``np.log10`` from ``math.log10`` on 3.5 %, each by at most
1 ulp, and the hypot differences still moved 0.05 % of the final RSSI values.

So the NumPy functions serve only to rank.  Over 4 M offsets from 3 m to
30 km, under three carrier/exponent pairs, the largest |NumPy - exact| level
was 2.8e-14 dB.  Both paths apply the same operations to values at most a few
ulps apart, so the gap is bounded by a few ulps of the largest term summed:
|tx|, |reference loss|, k times log10(d) (at most 309 for any finite d, plus
one for the ulp of d) and |shadowing|.  The ranking margin is
``_RANK_MARGIN_DB`` (1e-6 dB, 10^7 times the measured gap) plus 2^-46 times
the sum of those terms and the hysteresis, the largest shadowing value drawn
so far standing in for the last one.  With the default model that second part
is about 1e-9 dB; it grows with absurd transmit powers, exponents, sigmas or
hysteresis, where an ulp of a level exceeds 1e-6 dB.

A row is *open* when a second station ranks within the margin of its top, or
when its hysteresis test ``top <= serving + hysteresis`` ranks within two
margins of flipping.  Only open rows get exact levels, for their near-top
stations and their serving station.  Every other station ranks at least the
margin below the top, so it is exactly weaker than the exact strongest one,
which is therefore among the exact values, exact ties included (they resolve
to the smaller station id), and on top of a row that is not open.  Exact
levels move each side of the hysteresis test by at most one gap, and rounding
``serving + hysteresis`` and the sides' difference adds at most an ulp of the
terms and the hysteresis each: less than two margins in all, so a row that is
not open decides on ranked levels as on exact ones.  ``current_all`` computes
the levels it returns exactly, when they are read.  Shadowing draws
``normal(size=k)`` blocks, which yield exactly the values of k scalar draws.

The ranking also decides the trace's rounding.  ``trace.csv`` writes a serving
level with ``'%.2f'``, which rounds its exact binary value to the nearest
0.01 dB and writes the sign of a value that rounds to zero.  ``observe_all``
keeps its batch's ranked levels, serving stations and margin m, and
``_trace_levels`` writes the ranked level L of a row unless a midpoint
(k + 1/2)/100 dB or 0 lies within 2m of L; those rows get exact levels.  The
exact level E is within m of L, so where neither lies within 2m of L, E has
L's ``'%.2f'``.  The test runs in floats: ``100 * L`` is off by at most
2^-53 * 100|L|, ``0.5 - 200 * m`` by an ulp of 0.5, and ``rint`` and the
difference from it are exact; the second m covers these, since
m >= 1e-6 + 2^-46 |L|.  Where 2m exceeds 0.005 dB (absurd transmit powers,
say), every row goes exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._bounds import FieldError, bounded, checked
from .rng import substream

SPEED_OF_LIGHT = 3.0e8  # m/s
D_REF_M = 1.0  # path-loss reference distance
DEFAULT_TX_POWER_DBM = 46.0
DEFAULT_CARRIER_MHZ = 1800.0
DEFAULT_PATH_LOSS_EXPONENT = 3.5  # urban macro default
_TTT_SLACK = 1e-12  # absorbs float drift when comparing elapsed time to TTT
_SHADOW_ROWS = 128  # updates of shadowing drawn per vehicle at a time
_RANK_MARGIN_DB = 1e-6  # ranked levels closer than this are settled by exact ones
_RANK_ULPS = 2.0**-46  # per unit of the summed level terms, added to the margin
_LOG_D_MAX = 309.0  # log10 of the largest finite distance


@checked
class BaseStation:
    """Omnidirectional transmitter at a fixed map position."""

    id: str
    x: float = bounded("finite")
    y: float = bounded("finite")
    tx_power_dbm: float = bounded("> 0", DEFAULT_TX_POWER_DBM)
    carrier_mhz: float = bounded("> 0", DEFAULT_CARRIER_MHZ)

    def __post_init__(self) -> None:
        if any(c in self.id for c in ",\n\r\x00\x1c\x1d\x1e\x1f"):  # written unquoted into trace and events rows
            raise FieldError("BaseStation", "id", f"may not contain ',', '\\n', '\\r', NUL or \\x1c-\\x1f: {self.id!r}")


@checked
class RadioParams:
    """A scenario's handover and propagation settings (the ``radio.*`` keys), as a :class:`RadioObserver`
    takes them; the observer leaves ``pingpong_window_s`` to its caller's :func:`detect_ping_pong`."""

    hysteresis_db: float = bounded(">= 0", 3.0)
    time_to_trigger_s: float = bounded(">= 0", 1.0)
    pingpong_window_s: float = bounded("> 0", 10.0)
    path_loss_exponent: float = bounded("> 0", DEFAULT_PATH_LOSS_EXPONENT)
    shadowing_sigma_db: float = bounded(">= 0", 0.0)


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


def detect_ping_pong(history: list[HandoverEvent], window_s: float) -> list[tuple[float, str, str]]:
    """Flag every A→B followed by B→A within ``window_s``.

    ``history`` must be one vehicle's handovers in time order, as
    :class:`RadioObserver` returns them.
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
    """Tracks per-vehicle attachment against a fixed station set, under the
    handover and propagation settings of ``radio`` (see :class:`RadioParams`).

    ``observe_all`` (or ``update`` for one vehicle) must be called for every
    vehicle after every mobility step; a candidate cell must beat the serving
    cell by more than the hysteresis margin continuously for the whole
    time-to-trigger before the handover completes.  A different candidate
    appearing restarts the trigger timer.  The first update attaches to the
    strongest cell with no hysteresis and no event.  Equal levels resolve to
    the smaller station id.  One batch may not list a vehicle twice.

    Optional log-normal shadowing draws one value per station per update
    from a per-vehicle stream; with sigma = 0 (default) no draws happen and
    measurements are pure path loss.  A stream draws its values in blocks
    of ``_SHADOW_ROWS`` (128) updates, 128 x 8 B a station per vehicle (6 KB
    with six stations), so a step's refills are few and each is one
    Generator call.  The first block is 1 + vehicle_id % _SHADOW_ROWS updates
    long: vehicles observed from the same step on then refill on different
    steps, instead of all at once in one slow step.  Each refill raises the
    ranking margin's shadowing term to the block's largest magnitude,
    ``max(block.max(), -block.min())``, which needs no temporary array.

    State is kept in columns over vehicle rows, in the order vehicles are
    first seen: serving and candidate station index (-1 for none), candidate
    start time, position at the last update, and each row's shadowing block
    with its read pointer.  Exact levels are computed only for the rows whose
    choice or trace rounding the ranking leaves open, and by ``current_all``
    from the last position and the shadowing row it read (see the module
    docstring).
    Handovers are returned, not stored: a caller that wants ping-pongs
    collects each vehicle's events for :func:`detect_ping_pong`.
    """

    _COLUMNS = ("_serving", "_candidate", "_since", "_pos_x", "_pos_y", "_block", "_block_len", "_pointer")

    def __init__(self, stations: list[BaseStation], radio: RadioParams = RadioParams(), *, seed: int = 0) -> None:
        if not stations:
            raise ValueError("at least one base station required")
        ids = [s.id for s in stations]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate station ids")
        self.stations = sorted(stations, key=lambda s: s.id)
        self.radio = radio
        self.seed = seed
        # per-station constants of rssi(), in id order, as columns over vehicles
        self._ids = [s.id for s in self.stations]
        self._x = np.array([[s.x] for s in self.stations], dtype=float)
        self._y = np.array([[s.y] for s in self.stations], dtype=float)
        self._tx = np.array([[s.tx_power_dbm] for s in self.stations], dtype=float)
        self._ref = np.array([[reference_loss_db(s.carrier_mhz)] for s in self.stations])
        self._k = 10.0 * radio.path_loss_exponent
        # the level terms the ranking margin scales with; the shadowing term grows at each refill
        self._terms = (float(abs(self._tx).max() + abs(self._ref).max()) + self._k * (_LOG_D_MAX + 1.0)
                       + radio.hysteresis_db)
        self._shadow_max = 0.0
        # per-vehicle columns, row = order of first observation, grown by doubling
        rows = 16
        depth = _SHADOW_ROWS if radio.shadowing_sigma_db > 0.0 else 0
        self._row: dict[int, int] = {}
        self._same = 0  # vehicles 0.._same - 1 have rows equal to their ids
        self._arange = np.arange(0)  # np.arange(_same), or shorter until a range batch needs it
        self._streams: list[np.random.Generator] = []  # shadowing stream per row
        self._serving = np.empty(rows, dtype=np.intp)
        self._candidate = np.empty(rows, dtype=np.intp)
        self._since = np.empty(rows)
        self._pos_x, self._pos_y = np.empty(rows), np.empty(rows)  # position at the last update
        self._block = np.empty((rows, depth, len(self._ids)))
        self._block_len = np.empty(rows, dtype=np.intp)
        self._pointer = np.empty(rows, dtype=np.intp)  # next unread row of the block
        self._batch: tuple | None = None  # the last batch's rows, serving indices, ranked levels and margin

    def _rows(self, ids) -> np.ndarray:
        """Row of each listed vehicle; vehicles seen for the first time get one.

        A range of ids whose rows equal their ids, as the runner's ``range(n)``
        batches have once every vehicle is seen, maps to a view of one cached
        ``arange``, which the caller must not write.
        """
        if isinstance(ids, range) and ids.step == 1 and 0 <= ids.start and ids.stop <= self._same:
            if len(self._arange) < ids.stop:
                self._arange = np.arange(self._same)
            return self._arange[ids.start:ids.stop]
        try:
            return np.fromiter(map(self._row.__getitem__, ids), np.intp, len(ids))
        except KeyError:
            return np.array([self._row[vid] if vid in self._row else self._add_row(vid) for vid in ids], np.intp)

    def _add_row(self, vehicle_id: int) -> int:
        row = self._row[vehicle_id] = len(self._row)
        if vehicle_id == row == self._same:
            self._same += 1
        if row == len(self._serving):
            for name in self._COLUMNS:
                old = getattr(self, name)
                new = np.empty((2 * row,) + old.shape[1:], dtype=old.dtype)
                new[:row] = old
                setattr(self, name, new)
        self._serving[row] = self._candidate[row] = -1
        self._since[row] = 0.0
        self._pointer[row] = 0
        if self.radio.shadowing_sigma_db > 0.0:
            self._streams.append(substream(self.seed, "shadowing", vehicle_id))
            self._refill(row, 1 + vehicle_id % _SHADOW_ROWS)
        return row

    def _refill(self, row: int, length: int) -> None:
        block = self._streams[row].normal(0.0, self.radio.shadowing_sigma_db, size=(length, len(self._ids)))
        self._block[row, :length] = block
        self._block_len[row] = length
        self._shadow_max = max(self._shadow_max, float(block.max()), -float(block.min()))

    def _draw(self, rows: np.ndarray) -> np.ndarray | None:
        """Next shadowing row of each listed row, as (stations x rows); None without shadowing."""
        if self.radio.shadowing_sigma_db <= 0.0:
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

    def observe_all(self, ids, xs, ys, t: float) -> list[HandoverEvent]:
        """Re-evaluate the attachment of every listed vehicle at time ``t``.

        ``ids``, ``xs`` and ``ys`` are parallel sequences, and no id may be
        listed twice (a ``range`` cannot).  The result equals calling
        ``update`` for each row in order: the handovers completed at ``t``, in
        row order.  A bad batch raises ``ValueError`` before any state changes.
        """
        unique = isinstance(ids, range)
        if not unique:
            ids = list(ids)
        n = len(ids)
        x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if not n == len(x) == len(y):
            raise ValueError("ids, xs and ys must have the same length")
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t!r}")
        if not unique and len(set(ids)) != n:
            raise ValueError("duplicate vehicle ids in one batch")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("positions must be finite")
        rows = self._rows(ids)
        shadow = self._draw(rows)
        dx, dy = x - self._x, y - self._y  # (stations x vehicles)

        # rank with NumPy, then make exact the near-top and serving levels of every open row
        log_d = np.log10(np.maximum(np.hypot(dx, dy), D_REF_M) / D_REF_M)
        levels = self._levels(log_d, shadow)
        margin = _RANK_MARGIN_DB + _RANK_ULPS * (self._terms + self._shadow_max)
        hysteresis = self.radio.hysteresis_db
        serving = self._serving[rows]
        served = serving * n + np.arange(n)  # flat (station, vehicle) index; -1 wraps to the last station
        attached = serving >= 0
        best, best_level, serving_level = levels.argmax(axis=0), levels.max(axis=0), levels.ravel()[served]
        # over > 0 exactly where best_level > serving_level + hysteresis, the levels being finite
        over = best_level - (serving_level + hysteresis)
        exact = levels >= best_level - margin  # each row's own top is in it
        near = (abs(over) <= 2.0 * margin) & (best != serving)  # a flip, if attached
        if np.count_nonzero(exact) > n or np.count_nonzero(near):  # some row may be open
            open_rows = (exact.sum(axis=0) > 1) | (near & attached)
            exact &= open_rows
            exact.ravel()[served[open_rows]] = True
            at = np.flatnonzero(exact)
            log_d.ravel()[at] = _exact_log_d(dx.ravel()[at], dy.ravel()[at])
            levels = self._levels(log_d, shadow)
            best, best_level, serving_level = levels.argmax(axis=0), levels.max(axis=0), levels.ravel()[served]
            over = best_level - (serving_level + hysteresis)

        # argmax takes the smaller id of equals; best == serving needs no test: over = -hysteresis <= 0
        candidate = np.where(attached & (over > 0.0), best, -1)
        since = self._since[rows]
        np.copyto(since, t, where=candidate != self._candidate[rows])
        fire = (candidate >= 0) & (t - since >= self.radio.time_to_trigger_s - _TTT_SLACK)
        new_serving = np.where(fire | ~attached, best, serving)
        self._candidate[rows] = np.where(fire, -1, candidate)
        self._since[rows] = since
        self._serving[rows] = new_serving
        self._pos_x[rows], self._pos_y[rows] = x, y
        self._batch = rows, new_serving, levels, margin
        if not np.count_nonzero(fire):
            return []
        cells = self._ids
        return [HandoverEvent(t, ids[i], cells[serving[i]], cells[best[i]], float(x[i]), float(y[i]))
                for i in np.flatnonzero(fire).tolist()]

    def update(self, vehicle_id: int, x: float, y: float, t: float) -> HandoverEvent | None:
        """Re-evaluate the attachment of one vehicle; returns a completed handover."""
        events = self.observe_all((vehicle_id,), (x,), (y,), t)
        return events[0] if events else None

    def current(self, vehicle_id: int) -> tuple[str, float] | None:
        """(serving cell, its RSSI at the last update) or None before any update."""
        return self.current_all((vehicle_id,))[0]

    def current_all(self, ids) -> list[tuple[str, float] | None]:
        """:meth:`current` of every listed vehicle, one exact level per known vehicle, at once."""
        rows = np.fromiter(map(self._row.get, ids, repeat(-1)), np.intp)
        known = rows[rows >= 0]
        found = zip(*self._serving_levels(known))
        return list(found) if known.size == rows.size else [None if row < 0 else next(found) for row in rows.tolist()]

    def _trace_levels(self) -> tuple[list[str], list[float]]:
        """Serving cell of each row of the last ``observe_all`` batch, in batch order, and a level whose
        ``'%.2f'`` is its exact level's: the ranked level where that rounding is closed, else the exact one."""
        rows, cell, levels, margin = self._batch
        n = cell.size
        level = levels.ravel().take(cell * n + np.arange(n))
        # open: a '%.2f' midpoint (k + 1/2) / 100 dB or 0 lies within two margins of the ranked level
        scaled = level * 100.0
        scaled -= np.rint(scaled)
        open_rows = ~((abs(scaled) < 0.5 - 200.0 * margin) & (abs(level) > 2.0 * margin))
        if np.count_nonzero(open_rows):
            at = np.flatnonzero(open_rows)
            level[at] = self._serving_levels(rows[at])[1]
        return list(map(self._ids.__getitem__, cell.tolist())), level.tolist()

    def _serving_levels(self, rows: np.ndarray) -> tuple[list[str], list[float]]:
        """Serving cell of each listed row and its exact level at the row's last update; every row is attached."""
        cell = self._serving[rows]
        log_d = _exact_log_d(self._pos_x[rows] - self._x.take(cell), self._pos_y[rows] - self._y.take(cell))
        level = self._tx.take(cell) - (self._ref.take(cell) + self._k * log_d)
        if self.radio.shadowing_sigma_db > 0.0:  # the shadowing row the last update read
            level += self._block[rows, self._pointer[rows] - 1, cell]
        return list(map(self._ids.__getitem__, cell.tolist())), level.tolist()
