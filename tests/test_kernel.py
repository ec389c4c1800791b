"""Event kernel: ordering, cancellation, host mapping."""

import gc
import math
import re
import weakref

import numpy as np
import pytest

from vehsim.kernel import (
    EventKernel,
    KernelError,
    MappingError,
    to_ns,
    to_seconds,
)

from conftest import HeapHost


def test_time_conversion():
    assert to_ns(0.1) == 100_000_000
    assert to_ns(1.0) == 1_000_000_000
    assert to_seconds(to_ns(12.345)) == pytest.approx(12.345, abs=1e-9)
    assert to_ns(0.0) == 0


def test_fire_order_matches_sorted_schedule():
    kernel = EventKernel()
    rng = np.random.default_rng(101)
    schedule = []
    fired = []
    kernel.bind("sink", lambda event: fired.append((event.fire_time_ns, event.seq)))
    for _ in range(1000):
        delay = float(rng.uniform(0.0, 50.0))
        handle = kernel.schedule("sink", "tick", delay)
        event = kernel.event_of(handle)
        schedule.append((event.fire_time_ns, event.seq))
    kernel.run_until(60.0)
    assert fired == sorted(schedule)
    assert kernel.events_fired == 1000


def test_simultaneous_events_fire_in_schedule_order():
    kernel = EventKernel()
    order = []
    kernel.bind("a", lambda e: order.append(e.kind))
    for kind in ("first", "second", "third"):
        kernel.schedule("a", kind, 5.0)
    kernel.run_until(5.0)
    assert order == ["first", "second", "third"]


def test_heartbeat_chain():
    kernel = EventKernel()
    times = []

    def beat(event):
        times.append(kernel.now)
        if len(times) < 100:
            kernel.schedule("heart", "beat", 0.1)

    kernel.bind("heart", beat)
    kernel.schedule("heart", "beat", 0.1)
    stats = kernel.run_until(60.0)
    assert len(times) == 100
    assert times[0] == pytest.approx(0.1)
    assert times[-1] == pytest.approx(10.0)
    assert stats.final_time == pytest.approx(60.0)
    assert kernel.now == pytest.approx(60.0)  # clock lands on the requested horizon


def test_run_until_on_empty_queue_advances_clock():
    kernel = EventKernel()
    stats = kernel.run_until(10.0)
    assert kernel.now == pytest.approx(10.0)
    assert stats.events_fired == 0


def test_negative_delay_rejected():
    kernel = EventKernel()
    kernel.bind("a", lambda e: None)
    with pytest.raises(ValueError):
        kernel.schedule("a", "x", -0.001)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e300])
def test_non_finite_times_rejected_without_side_effects(bad):
    kernel = EventKernel()
    kernel.bind("a", lambda e: None)
    kernel.schedule("a", "x", 1.0)
    kernel.run_until(0.5)
    before = (kernel._seq, dict(kernel._pending), list(kernel._heap), kernel.now_ns)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        kernel.schedule("a", "x", bad)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        kernel.run_until(bad)
    assert (kernel._seq, dict(kernel._pending), list(kernel._heap), kernel.now_ns) == before
    assert kernel.run_until(2.0).events_fired == 1


def test_run_until_backwards_rejected():
    kernel = EventKernel()
    kernel.run_until(5.0)
    with pytest.raises(ValueError):
        kernel.run_until(4.9)


def test_cancel_prevents_firing_and_is_idempotent():
    kernel = EventKernel()
    fired = []
    kernel.bind("a", lambda e: fired.append(e.kind))
    keep = kernel.schedule("a", "keep", 1.0)
    drop = kernel.schedule("a", "drop", 2.0)
    assert kernel.cancel(drop) is True
    assert kernel.cancel(drop) is False
    kernel.run_until(10.0)
    assert fired == ["keep"]
    assert kernel.cancel(keep) is False  # already fired
    assert kernel.is_pending(keep) is False


def test_unbound_target_raises():
    kernel = EventKernel()
    kernel.schedule("ghost", "x", 1.0)
    with pytest.raises(KernelError):
        kernel.run_until(2.0)


def test_bind_refuses_a_target_that_already_has_a_handler():
    kernel = EventKernel()
    fired = []
    kernel.bind("a", lambda e: fired.append("first"))
    with pytest.raises(KernelError, match="already has a handler"):
        kernel.bind("a", lambda e: fired.append("second"))
    kernel.schedule("a", "x", 1.0)
    kernel.run_until(2.0)
    assert fired == ["first"]


def test_handler_error_propagates_and_clock_stops_at_event():
    kernel = EventKernel()
    seen = []

    def handler(event):
        seen.append(event.kind)
        if event.kind == "boom":
            raise RuntimeError("handler exploded")

    kernel.bind("a", handler)
    kernel.schedule("a", "ok", 1.0)
    kernel.schedule("a", "boom", 2.0)
    kernel.schedule("a", "never", 3.0)
    with pytest.raises(RuntimeError, match="exploded"):
        kernel.run_until(10.0)
    assert seen == ["ok", "boom"]
    assert kernel.now == pytest.approx(2.0)
    assert kernel.events_fired == 1  # the failing event does not count as completed


class RecordingHost(HeapHost):
    """Host-side queue double that also records every inserted and removed token."""

    def __init__(self):
        super().__init__()
        self.inserted = []
        self.removed = []

    def insert(self, token, fire_time):
        self.inserted.append(token)
        super().insert(token, fire_time)

    def remove(self, token):
        self.removed.append(token)
        super().remove(token)


def test_host_mapping_round_trip():
    host = RecordingHost()
    kernel = EventKernel(host=host)
    fired = []
    kernel.bind("a", lambda e: fired.append(e.kind))

    handle = kernel.schedule("a", "x", 1.5)
    assert host.inserted == [handle.id]
    token = host.pop()
    event = kernel.deliver_from_host(token)
    assert event.kind == "x"
    assert kernel.now == pytest.approx(1.5)
    assert fired == ["x"]
    # mapping entry is consumed: the token cannot be retrieved again
    with pytest.raises(MappingError):
        kernel.deliver_from_host(token)


def test_host_cancel_removes_from_host_queue():
    host = RecordingHost()
    kernel = EventKernel(host=host)
    kernel.bind("a", lambda e: None)
    handle = kernel.schedule("a", "x", 1.0)
    token = host.heap[0][1]
    assert kernel.cancel(handle) is True
    assert host.removed == [token]
    assert host.heap == []


def test_run_until_rejected_in_host_mode():
    kernel = EventKernel(host=RecordingHost())
    with pytest.raises(KernelError):
        kernel.run_until(1.0)


def test_out_of_order_host_delivery_rejected():
    host = RecordingHost()
    kernel = EventKernel(host=host)
    kernel.bind("a", lambda e: None)
    early = kernel.schedule("a", "early", 1.0)
    late = kernel.schedule("a", "late", 5.0)
    kernel.deliver_from_host(late.id)  # host skipped ahead
    assert kernel.now == pytest.approx(5.0)
    with pytest.raises(KernelError):
        kernel.deliver_from_host(early.id)
    # delivering at exactly the current clock is fine
    same_time = kernel.schedule("a", "x", 0.0)
    kernel.deliver_from_host(same_time.id)
    assert kernel.now == pytest.approx(5.0)


def test_standalone_and_host_execution_produce_identical_logs():
    def drive(host_mode: bool):
        log = []
        host = RecordingHost() if host_mode else None
        kernel = EventKernel(host=host)
        rng = np.random.default_rng(77)

        def handler(event):
            log.append((kernel.now_ns, event.kind))
            if event.kind.startswith("parent") and rng.random() < 0.3:
                kernel.schedule("t", f"child-of-{event.kind}", float(rng.uniform(0, 2)))

        kernel.bind("t", handler)
        for i in range(300):
            kernel.schedule("t", f"parent{i}", float(rng.uniform(0, 30)))
        if host_mode:
            while host.heap:
                kernel.deliver_from_host(host.pop())
        else:
            kernel.run_until(40.0)
        return log

    assert drive(False) == drive(True)


def test_host_driven_kernel_keeps_no_delivered_or_cancelled_event():
    class Payload:
        pass

    host = RecordingHost()
    kernel = EventKernel(host=host)
    kernel.bind("a", lambda e: None)
    delivered, cancelled = Payload(), Payload()
    refs = [weakref.ref(delivered), weakref.ref(cancelled)]
    kernel.schedule("a", "delivered", 1.0, delivered)
    kernel.cancel(kernel.schedule("a", "cancelled", 2.0, cancelled))
    kernel.deliver_from_host(host.pop())
    assert host.heap == []
    del delivered, cancelled
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
