"""Deterministic discrete-event kernel.

The kernel keeps a virtual event queue ordered by (fire time, schedule order).
It can run standalone via :meth:`EventKernel.run_until`, or it can be embedded
into a host scheduler: every scheduled event is then mirrored into the host
queue as an opaque token, and the host drives delivery by handing tokens back
through :meth:`EventKernel.deliver_from_host`.  Both execution modes invoke
handlers in exactly the same order.

Time is stored as integer nanoseconds internally so that event ordering and
the simulation clock are bit-exact across runs and platforms; the public API
accepts and returns seconds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Protocol

NS_PER_SECOND = 1_000_000_000


def to_ns(seconds: float) -> int:
    return round(seconds * NS_PER_SECOND)


def to_seconds(ns: int) -> float:
    return ns / NS_PER_SECOND


class KernelError(Exception):
    """Misuse of the kernel API: bad arguments, disposed kernel, unknown target."""


class MappingError(KeyError):
    """Lookup of an unknown or already-consumed host token."""


class _State(Enum):
    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


@dataclass
class Event:
    """A unit of work on the virtual timeline.

    ``seq`` is a monotone schedule counter and breaks ties between events that
    share a fire time, so delivery order is FIFO among simultaneous events.
    """

    fire_time_ns: int
    seq: int
    target: str
    kind: str
    payload: Any = None
    _state: _State = field(default=_State.PENDING, repr=False, compare=False)

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
        """Enqueue a placeholder for the mapped event at the given virtual time."""

    def remove(self, token: int) -> None:
        """Drop a previously inserted placeholder (the event was cancelled)."""


class EventMapping:
    """Bidirectional map between scheduled events and host-queue tokens.

    An entry exists exactly while its event is scheduled but not yet fired;
    retrieving an event consumes its entry, and firing or cancelling an event
    drops it.
    """

    def __init__(self) -> None:
        self._event_by_token: dict[int, Event] = {}
        self._token_by_seq: dict[int, int] = {}
        self._next_token = 1

    def __len__(self) -> int:
        return len(self._event_by_token)

    def store(self, event: Event) -> int:
        """Create (or return the existing) token for a scheduled event."""
        existing = self._token_by_seq.get(event.seq)
        if existing is not None:
            return existing
        token = self._next_token
        self._next_token += 1
        self._event_by_token[token] = event
        self._token_by_seq[event.seq] = token
        return token

    def retrieve(self, token: int) -> Event:
        """Pop the event for ``token``; unknown or consumed tokens raise MappingError."""
        event = self._event_by_token.pop(token, None)
        if event is None:
            raise MappingError(f"unknown or already-consumed host token {token!r}")
        del self._token_by_seq[event.seq]
        return event

    def token_of(self, event: Event) -> int | None:
        return self._token_by_seq.get(event.seq)

    def discard(self, event: Event) -> int | None:
        """Drop the entry for ``event`` if one exists; returns the freed token."""
        token = self._token_by_seq.pop(event.seq, None)
        if token is not None:
            del self._event_by_token[token]
        return token

    def clear(self) -> None:
        self._event_by_token.clear()
        self._token_by_seq.clear()


class EventKernel:
    """Virtual event queue with deterministic delivery.

    Handlers are registered per target id with :meth:`bind` and receive the
    :class:`Event` as their single argument.  A handler that raises aborts the
    run immediately; the partially advanced clock and fire count stay readable
    on the kernel, so scenario bugs surface deterministically instead of being
    skipped over.
    """

    def __init__(self, host: HostQueue | None = None) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._pending: dict[int, Event] = {}
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self._mapping = EventMapping()
        self._host = host
        self._now_ns = 0
        self._seq = 0
        self._fired = 0
        self._disposed = False

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

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def mapping(self) -> EventMapping:
        return self._mapping

    def is_pending(self, handle: EventHandle) -> bool:
        return handle.id in self._pending

    def event_of(self, handle: EventHandle) -> Event:
        event = self._pending.get(handle.id)
        if event is None:
            raise KernelError(f"handle {handle.id} does not reference a pending event")
        return event

    # -- registration and scheduling ---------------------------------------

    def bind(self, target: str, handler: Callable[[Event], None]) -> None:
        self._handlers[target] = handler

    def schedule(self, target: str, kind: str, delay: float, payload: Any = None) -> EventHandle:
        """Enqueue an event ``delay`` seconds after the current virtual time.

        Negative delays are an argument error: the virtual clock never runs
        backwards.
        """
        if self._disposed:
            raise KernelError("kernel is disposed")
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = Event(self._now_ns + to_ns(delay), self._seq, target, kind, payload)
        self._seq += 1
        self._pending[event.seq] = event
        heapq.heappush(self._heap, (event.fire_time_ns, event.seq, event))
        if self._host is not None:
            token = self._mapping.store(event)
            self._host.insert(token, event.fire_time)
        return EventHandle(event.seq)

    def cancel(self, handle: EventHandle) -> bool:
        """Remove a scheduled event.  Idempotent: repeated cancels return False."""
        event = self._pending.get(handle.id)
        if event is None:
            return False
        event._state = _State.CANCELLED
        del self._pending[event.seq]
        token = self._mapping.discard(event)
        if token is not None and self._host is not None:
            self._host.remove(token)
        return True

    # -- standalone execution ----------------------------------------------

    def run_until(self, t_end: float) -> RunStats:
        """Deliver every event with fire_time <= t_end in (fire_time, seq) order.

        On normal completion the clock rests at ``t_end`` even if the queue
        drained earlier.  If a handler raises, the exception propagates and the
        clock stays at the fire time of the failing event; ``events_fired``
        reflects only the events that completed.
        """
        if self._disposed:
            raise KernelError("kernel is disposed")
        if self._host is not None:
            raise KernelError("host-driven kernel: delivery is owned by the host queue")
        t_end_ns = to_ns(t_end)
        if t_end_ns < self._now_ns:
            raise ValueError(f"t_end {t_end!r} is before the current time {self.now!r}")
        fired = 0
        while self._heap and self._heap[0][0] <= t_end_ns:
            _, _, event = heapq.heappop(self._heap)
            if event._state is not _State.PENDING:
                continue  # lazily dropped cancellation
            self._now_ns = event.fire_time_ns
            self._fire(event)
            fired += 1
        self._now_ns = t_end_ns
        return RunStats(events_fired=fired, final_time=self.now)

    # -- host-embedded execution -------------------------------------------

    def retrieve_from_host(self, token: int) -> Event:
        """Resolve a host token back to its event, consuming the mapping entry."""
        return self._mapping.retrieve(token)

    def deliver_from_host(self, token: int) -> Event:
        """Host-driven delivery: retrieve the token's event, advance the clock, dispatch."""
        event = self.retrieve_from_host(token)
        if event._state is not _State.PENDING:
            raise KernelError(f"event {event.seq} is not pending")
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
        event._state = _State.FIRED
        del self._pending[event.seq]
        self._mapping.discard(event)
        handler = self._handlers.get(event.target)
        if handler is None:
            raise KernelError(f"no handler bound for target {event.target!r}")
        handler(event)
        self._fired += 1

    def dispose(self) -> None:
        """Tear the kernel down; further scheduling raises KernelError."""
        self._heap.clear()
        self._pending.clear()
        self._mapping.clear()
        self._disposed = True
