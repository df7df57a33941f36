"""Machine-speed yardstick for the end-to-end times.

On a shared machine the speed of one CPU drifts by tens of percent over
minutes, because other tenants take turbo headroom and hyperthread siblings.
Every Python-bound timing drifts with it. ``speed()`` times a fixed
pure-Python loop, which does not depend on hqec, right next to each timed
sample, in the process that did the work. A rate measured at speed ``s`` is reported as ``rate * REFERENCE_SPEED
/ s``, the rate on a machine that runs the loop at ``REFERENCE_SPEED``. A
time is scaled the other way. The raw values are printed beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

#: Loop iterations per second of the reference machine.  Fixed: changing it
#: rescales every end-to-end time.
REFERENCE_SPEED = 1.0e7
LOOP = 20_000
REPEATS = 7


def speed() -> float:
    """Median loop iterations per second over a few ~2 ms timings."""
    rates = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(LOOP):
            total += i * i
            table[i & 255] = total
        rates.append(LOOP / (time.perf_counter() - start))
    return statistics.median(rates)
