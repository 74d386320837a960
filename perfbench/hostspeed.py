"""Gauging the host's speed, so timings taken minutes apart compare.

On a shared virtual machine the same pure-Python work was seen to run
at speeds tens of percent apart, in regimes lasting from seconds to
minutes.  The slowdown shows in the process's CPU time as much as in
its wall time (the vCPU runs slower, it is not descheduled), so no
clock hides it, and a run's medians move with whatever regime it met.

The end-to-end timings are therefore scaled by the host's speed.  A
:class:`Gauge` times a fixed piece of reference work, independent of
the program, on the calling thread's CPU clock: other threads and
processes competing for the CPU do not slow it, only the host does.
A :class:`Watch` reads the gauge before and after each operation and
scales the operation's wall time by ``REFERENCE_S / gauge``, the gauge
being the mean of the two readings.  The scaled time is what the
operation would take on a host where the gauge reads
:data:`REFERENCE_S`; a faster program still gives a smaller scaled
time, while a slower host does not.

The reference work has three parts, each standing for some of what the
program does: integer arithmetic in an interpreter loop; small objects
with a method call; reads scattered over a few megabytes of objects.
The gauge is their geometric mean, so no part dominates.
"""

from __future__ import annotations

import math
import random
import time

from perfbench.tracing import clock

#: what the gauge reads, in seconds, on the host the scaled times refer
#: to (a 2-vCPU Xeon virtual machine in a mid-speed regime)
REFERENCE_S = 0.003

_ARITH_ROUNDS = 30_000
_OBJECT_ROUNDS = 4_000
_TABLE_SIZE = 50_000
_TABLE_READS = 6_000


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def _arith() -> int:
    acc = 0
    for i in range(_ARITH_ROUNDS):
        acc += i * i % 7
    return acc


def _objects() -> int:
    live: dict[int, _Item] = {}
    acc = 0
    for i in range(_OBJECT_ROUNDS):
        item = _Item(i, i & 15)
        acc += item.total()
        live[i & 255] = item
        if len(live) > 200:
            live.clear()
    return acc


class Gauge:
    """Times the reference work; :meth:`read` returns one reading."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = [_Item(i, 3 * i + 1000) for i in range(_TABLE_SIZE)]
        self._reads = [rng.randrange(_TABLE_SIZE) for _ in range(_TABLE_READS)]
        self.readings: list[float] = []

    def _scattered(self) -> int:
        table = self._table
        acc = 0
        for index in self._reads:
            acc += table[index].b
        return acc

    def read(self) -> float:
        """Geometric mean of the three parts' thread CPU seconds."""
        log_sum = 0.0
        for part in (_arith, _objects, self._scattered):
            start = time.thread_time()
            part()
            log_sum += math.log(max(time.thread_time() - start, 1e-9))
        reading = math.exp(log_sum / 3.0)
        self.readings.append(reading)
        return reading


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` on the reference host, given the gauge around it."""
    return wall_s * REFERENCE_S / ((before + after) / 2.0)


class Watch:
    """Times operations one after another, each also scaled.

    ``gauge`` None gives plain wall times (the traced run, whose pass
    must hold nothing but the program's own work).
    """

    def __init__(self, gauge: Gauge | None) -> None:
        self.gauge = gauge
        self._before = gauge.read() if gauge is not None else 0.0
        self._start = 0.0

    def start(self) -> None:
        self._start = clock()

    def stop(self) -> tuple[float, float]:
        """``(wall, scaled)`` seconds since :meth:`start`."""
        wall = clock() - self._start
        if self.gauge is None:
            return wall, wall
        after = self.gauge.read()
        out = scaled(wall, self._before, after)
        self._before = after
        return wall, out
