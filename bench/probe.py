"""Calibration probe and the timeline that normalises timings by it.

The host this benchmark runs on changes speed by up to 2x within seconds, for
reasons outside the program (other tenants on shared cores and caches).  Raw
timings of identical code therefore do not repeat.  The benchmark interleaves
a fixed calibration probe with the measured work and expresses every interval
in *reference seconds*: each stretch of time is divided by the median of the
nearest probe times and multiplied by ``REFERENCE_PROBE_NS``.  A genuine
change to the program moves the work but not the probe, so it still shows.

The probe imports nothing from vehsim and allocates no GC-tracked objects,
so it neither triggers the collector nor depends on the heap the program
built.  It is two fixed pure-Python loops: integer and float arithmetic, then
byte flips scattered over an 8 MiB buffer (larger than a 2 MiB per-core
L2), so it slows down both when the core is shared and when the caches are.
Neither loop alone follows every workload.  Quartile spread of normalised
stepping time over eight interleaved jobs per workload with identical
inputs, on a shared 2-vCPU Xeon VM under Python 3.11 (raw: city-trips 17 %,
grid-radio 19 %, grid-dense 19 %):
arithmetic loop 9.9 / 4.5 / 1.7 %, buffer loop 2.4 / 3.2 / 4.8 %, both
5.1 / 3.4 / 2.6 %, a 20k-object pointer chase 11 / 9.6 / 22 %.  A window of
one probe on each side of a stretch followed short slowdowns best (p99 step
time); wider windows smoothed them away.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_ITERATIONS = 1_000
PROBE_BUFFER_BYTES = 8 << 20
# Median probe time on an undisturbed 2-vCPU Xeon VM under Python 3.11;
# fixing it makes a normalised time read as seconds on that machine.
REFERENCE_PROBE_NS = 450_000
# Probes on each side of a stretch whose median sets its speed factor.
WINDOW = 1

_cpu = time.process_time_ns
_wall = time.perf_counter_ns
_buffer = bytearray(PROBE_BUFFER_BYTES)


def probe_loop(n: int = PROBE_ITERATIONS) -> None:
    """The calibration workload: a Lehmer generator folded into a float, then
    the same generator flipping bytes of the probe buffer, 64 bytes apart."""
    x = 1
    acc = 0.0
    for _ in range(n):
        x = (x * 48271) % 2147483647
        acc += x * 4.656612875245797e-10
    buf, mask = _buffer, PROBE_BUFFER_BYTES - 1
    for _ in range(n):
        x = (x * 48271) % 2147483647
        buf[(x << 6) & mask] ^= 1


class Series:
    """Probe intervals and named instants on one clock, in nanoseconds."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.marks: dict[str, int] = {}
        self.steps: list[int] = []  # instant of every World.step entry

    def probe_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]


class Timeline:
    """Probes and instants of one process on two clocks.

    Normalised timings use process CPU time, which leaves out the time the
    process waits for a core; raw timings use wall time, as a user sees it.
    """

    def __init__(self) -> None:
        self.cpu = Series()
        self.wall = Series()

    def probe(self) -> None:
        cpu, wall = _cpu(), _wall()
        probe_loop()
        self.cpu.ends.append(_cpu())
        self.wall.ends.append(_wall())
        self.cpu.starts.append(cpu)
        self.wall.starts.append(wall)

    def burst(self, count: int = 8) -> None:
        """A run of probes, used to bracket a phase."""
        for _ in range(count):
            self.probe()

    def maybe_probe(self, every_ns: int = 20_000_000) -> None:
        """Probe when the last probe ended more than ``every_ns`` of CPU time ago."""
        if not self.cpu.ends or _cpu() - self.cpu.ends[-1] > every_ns:
            self.probe()

    def mark(self, name: str) -> None:
        self.cpu.marks[name] = _cpu()
        self.wall.marks[name] = _wall()

    def step(self) -> None:
        self.cpu.steps.append(_cpu())
        self.wall.steps.append(_wall())

    def clock(self, normalised: bool = True) -> "Clock":
        return Clock(self.cpu if normalised else self.wall, normalised)


class Clock:
    """Maps an instant of one series to elapsed seconds with probe time taken out.

    With ``normalised`` set, each stretch between two probes is scaled by
    ``REFERENCE_PROBE_NS / median(nearest probes)``; otherwise by 1.  Only
    differences between two instants mean anything.
    """

    def __init__(self, series: Series, normalised: bool) -> None:
        if not series.starts:
            raise ValueError("timeline has no probes")
        self.series = series
        durations = series.probe_ns()
        self._ends = series.ends
        n = len(durations)
        # factor[j + 1] scales the stretch after probe j (factor[0]: before probe 0)
        self._factor = []
        for j in range(-1, n):
            median = statistics.median(durations[max(0, j - WINDOW + 1):j + WINDOW + 1])
            self._factor.append(REFERENCE_PROBE_NS / median if normalised else 1.0)
        # cumulative scaled time at the end of each probe, origin at probe 0's start
        self._at_end = []
        total = 0.0
        for j in range(n):
            if j:
                total += (series.starts[j] - series.ends[j - 1]) * self._factor[j]
            self._at_end.append(total)
        self._origin = series.starts[0]

    def __call__(self, t_ns: int) -> float:
        j = bisect.bisect_right(self._ends, t_ns)  # probes ended at or before t
        if j == 0:
            return (t_ns - self._origin) * self._factor[0] / 1e9
        return (self._at_end[j - 1] + (t_ns - self._ends[j - 1]) * self._factor[j]) / 1e9
