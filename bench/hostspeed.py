"""The host's current speed, and times scaled to a steady host.

Stdlib only. The reference host's virtual CPUs share physical cores with
other tenants: identical code runs up to about 2x slower, in stretches
from milliseconds to minutes, on each CPU independently. No statistic
over one run removes a slowdown that lasts longer than the run, so the
benchmark times every block of work together with a fixed pure-Python
probe run on the CPUs the block ran on, just before and just after it,
and reports the block's time divided by the probe's slowdown: the time
the block would have taken had the host run at the reference host's
uncontended speed throughout.

Different code slows by different factors. Against a loop of arithmetic
alone, a warm re-run slowed 1.25 times as much (in logarithms), and the
median error over 40 interleaved samples had a standard deviation of
5%. The probe mixes arithmetic, small allocations and JSON round trips,
which held that to 2-2.5% for warm re-runs, simulation and program
building alike.
"""

from __future__ import annotations

import json
import os
from time import perf_counter, thread_time

#: The probe's time on the reference host (2-vCPU Xeon, Python 3.11)
#: when nothing else contended for its CPU. Scaled times are in that
#: host's seconds.
REFERENCE_S = 1.40e-3

#: A document the size of a simulation result, for the JSON round trip.
_DOC = json.dumps({
    "instructions": 12_500,
    "cycles": 23_456,
    "stats": {f"counter_{i}": i * 1.5 for i in range(40)},
    "structure": {"entries": [1, 2, 3], "name": "btb" * 10},
})


def probe_s(clock=perf_counter) -> float:
    """Time of the fixed probe on the calling thread's CPU, by *clock*."""
    t0 = clock()
    x = 0
    for i in range(7_000):
        x += i * i % 7
    rows = []
    for i in range(1_000):
        row = {"a": i, "b": str(i), "c": [i, i + 1]}
        rows.append((row["b"], len(row["c"])))
    for _ in range(20):
        json.dumps(json.loads(_DOC), sort_keys=True)
    return clock() - t0


def cpus() -> list:
    """The CPUs this thread may run on."""
    return sorted(os.sched_getaffinity(0))


def pin() -> None:
    """Pin the calling thread, and every thread and process it starts
    from now on, to one CPU: the one a :class:`Meter` then probes."""
    os.sched_setaffinity(0, {cpus()[-1]})


def slowdown() -> float:
    """How many times slower than the reference host the CPUs this thread
    may use run right now: the probe on each in turn, the faster of two
    tries, averaged over them, divided by :data:`REFERENCE_S`."""
    allowed = cpus()
    times = []
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            times.append(min(probe_s(), probe_s()))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times) / REFERENCE_S


def busy_slowdown(cpu: int) -> float:
    """The slowdown of *cpu* while other processes of the run keep it
    busy: one probe there, timed in this thread's CPU time, since its wall
    time would also count the time the scheduler gives to them."""
    allowed = cpus()
    try:
        os.sched_setaffinity(0, {cpu})
        return probe_s(thread_time) / REFERENCE_S
    finally:
        os.sched_setaffinity(0, allowed)


class Meter:
    """The host's slowdown over consecutive blocks of work on the CPUs
    this thread may use.

    Construct it right before the first block and call :meth:`close`
    right after each one: the probe that closes a block opens the next,
    and no probe is inside a block's time. A block's wall time divided by
    its slowdown is its time on the reference host.
    """

    def __init__(self) -> None:
        self.last = slowdown()

    def close(self) -> float:
        """Probe now; returns the slowdown of the block just ended, the
        mean of the probes at its two ends."""
        now = slowdown()
        factor = (self.last + now) / 2.0
        self.last = now
        return factor
