"""A fixed reference loop that measures how fast the host runs Python right now.

The benchmark's host is a share of a machine other tenants use.  Its speed
moves by up to about 1.6x in episodes that last tens of seconds, longer than a
run, and it has no hardware counters to count work instead of time.  So the
benchmark times this loop, which belongs to the benchmark and never changes
with the program, right before and right after every timed stretch, and
reports times scaled to a host on which the loop takes :data:`REFERENCE_S`::

    scaled = measured * REFERENCE_S / reference

A change to the program moves ``measured`` and not ``reference``; a busier
host moves both.
"""

from __future__ import annotations

import time

#: Iterations of the loop: about 0.1 s on an uncontended core of the host
#: the bounds were set on (Intel Xeon, CPython 3.11).
ITERATIONS = 1_250_000
#: The loop time the scaled figures refer to.
REFERENCE_S = 0.1


def reference_loop(iterations: int = ITERATIONS) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def time_reference() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(measured_s: float, reference_s: float) -> float:
    """``measured_s`` scaled to a host on which the loop takes REFERENCE_S."""
    return measured_s * REFERENCE_S / reference_s
