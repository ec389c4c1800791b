"""Deterministic discrete-event kernel.

The kernel keeps one table of pending events, keyed by each event's schedule
order (``seq``), and delivers them by (fire time, seq).  It can run
standalone via :meth:`EventKernel.run_until`, or it can be embedded into a
host scheduler: every scheduled event is then mirrored into the host queue
with its ``seq`` as the token, and the host drives delivery by handing tokens
back through :meth:`EventKernel.deliver_from_host`.  Both execution modes
invoke handlers in exactly the same order.

Time is stored as integer nanoseconds internally so that event ordering and
the simulation clock are bit-exact across runs and platforms; the public API
accepts and returns seconds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Protocol

NS_PER_SECOND = 1_000_000_000


def to_ns(seconds: float) -> int:
    """Seconds as integer nanoseconds; ``ValueError`` when that is not a finite number."""
    if not math.isfinite(ns := seconds * NS_PER_SECOND):
        raise ValueError(f"time {seconds!r} s is not finite or overflows the nanosecond clock")
    return round(ns)


def _fmt_seconds(t_ns: int) -> str:
    """Integer nanoseconds as the seconds every time column writes: up to nine decimals, no trailing zeros."""
    text = f"{t_ns / NS_PER_SECOND:.9f}".rstrip("0").rstrip(".")
    return text or "0"


def to_seconds(ns: int) -> float:
    return ns / NS_PER_SECOND


class KernelError(Exception):
    """Misuse of the kernel API: bad arguments, wrong mode, unknown target."""


class MappingError(KeyError):
    """Lookup of an unknown or already-consumed host token."""


@dataclass
class Event:
    """A unit of work on the virtual timeline.

    ``seq`` is a monotone schedule counter and breaks ties between events that
    share a fire time, so delivery order is FIFO among simultaneous events.
    It is also the event's handle id and its host token.
    """

    fire_time_ns: int
    seq: int
    target: str
    kind: str
    payload: Any = None

    @property
    def fire_time(self) -> float:
        """Fire time in seconds."""
        return to_seconds(self.fire_time_ns)


@dataclass(frozen=True)
class EventHandle:
    """Opaque reference to a scheduled event; query validity via EventKernel.is_pending()."""

    id: int


@dataclass(frozen=True)
class RunStats:
    events_fired: int
    final_time: float


class HostQueue(Protocol):
    """Minimal surface a host scheduler must offer to mirror the virtual queue."""

    def insert(self, token: int, fire_time: float) -> None:
        """Enqueue a placeholder for the event ``token`` at the given virtual time."""

    def remove(self, token: int) -> None:
        """Drop a previously inserted placeholder (the event was cancelled)."""


class EventKernel:
    """Virtual event queue with deterministic delivery.

    Handlers are registered per target id with :meth:`bind` and receive the
    :class:`Event` as their single argument.  A handler that raises aborts the
    run immediately; the partially advanced clock and fire count stay readable
    on the kernel, so scenario bugs surface deterministically instead of being
    skipped over.

    ``_pending`` (seq -> event) is the only record of what is pending.  A
    standalone kernel also keeps a heap of ``(fire_time_ns, seq)`` for
    :meth:`run_until`; entries whose seq is no longer pending were cancelled
    and are skipped when popped.  A host-driven kernel keeps no queue of its
    own: the host holds the order.
    """

    def __init__(self, host: HostQueue | None = None) -> None:
        self._heap: list[tuple[int, int]] = []
        self._pending: dict[int, Event] = {}
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self._host = host
        self._now_ns = 0
        self._seq = 0
        self._fired = 0

    # -- introspection -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return to_seconds(self._now_ns)

    @property
    def now_ns(self) -> int:
        return self._now_ns

    @property
    def events_fired(self) -> int:
        """Total events delivered over the kernel's lifetime."""
        return self._fired

    def is_pending(self, handle: EventHandle) -> bool:
        return handle.id in self._pending

    def event_of(self, handle: EventHandle) -> Event:
        event = self._pending.get(handle.id)
        if event is None:
            raise KernelError(f"handle {handle.id} does not reference a pending event")
        return event

    # -- registration and scheduling ---------------------------------------

    def bind(self, target: str, handler: Callable[[Event], None]) -> None:
        """Register ``target``'s handler; a target already bound raises :class:`KernelError`."""
        if target in self._handlers:
            raise KernelError(f"target {target!r} already has a handler")
        self._handlers[target] = handler

    def schedule(self, target: str, kind: str, delay: float, payload: Any = None) -> EventHandle:
        """Enqueue an event ``delay`` seconds after the current virtual time.

        Negative delays are an argument error: the virtual clock never runs
        backwards.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = Event(self._now_ns + to_ns(delay), self._seq, target, kind, payload)
        self._seq += 1
        self._pending[event.seq] = event
        if self._host is None:
            heapq.heappush(self._heap, (event.fire_time_ns, event.seq))
        else:
            self._host.insert(event.seq, event.fire_time)
        return EventHandle(event.seq)

    def cancel(self, handle: EventHandle) -> bool:
        """Remove a scheduled event.  Idempotent: repeated cancels return False."""
        if self._pending.pop(handle.id, None) is None:
            return False
        if self._host is not None:
            self._host.remove(handle.id)
        return True

    # -- standalone execution ----------------------------------------------

    def run_until(self, t_end: float) -> RunStats:
        """Deliver every event with fire_time <= t_end in (fire_time, seq) order.

        On normal completion the clock rests at ``t_end`` even if the queue
        drained earlier.  If a handler raises, the exception propagates and the
        clock stays at the fire time of the failing event; ``events_fired``
        reflects only the events that completed.
        """
        if self._host is not None:
            raise KernelError("host-driven kernel: delivery is owned by the host queue")
        t_end_ns = to_ns(t_end)
        if t_end_ns < self._now_ns:
            raise ValueError(f"t_end {t_end!r} is before the current time {self.now!r}")
        fired = 0
        while self._heap and self._heap[0][0] <= t_end_ns:
            _, seq = heapq.heappop(self._heap)
            event = self._pending.pop(seq, None)
            if event is None:
                continue  # lazily dropped cancellation
            self._now_ns = event.fire_time_ns
            self._fire(event)
            fired += 1
        self._now_ns = t_end_ns
        return RunStats(events_fired=fired, final_time=self.now)

    # -- host-embedded execution -------------------------------------------

    def deliver_from_host(self, token: int) -> Event:
        """Host-driven delivery: consume the token's event, advance the clock, dispatch.

        An unknown or already-consumed token raises :class:`MappingError`; a
        token whose fire time is before the clock raises :class:`KernelError`.
        """
        event = self._pending.pop(token, None)
        if event is None:
            raise MappingError(f"unknown or already-consumed host token {token!r}")
        if event.fire_time_ns < self._now_ns:
            raise KernelError(
                f"host delivered event {event.seq} out of order "
                f"({event.fire_time} < clock {self.now})"
            )
        self._now_ns = event.fire_time_ns
        self._fire(event)
        return event

    # -- internals -----------------------------------------------------------

    def _fire(self, event: Event) -> None:
        handler = self._handlers.get(event.target)
        if handler is None:
            raise KernelError(f"no handler bound for target {event.target!r}")
        handler(event)
        self._fired += 1
