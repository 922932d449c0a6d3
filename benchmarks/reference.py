"""The reference loop that calibrates the benchmark's times.

The host's speed drifts by tens of percent over minutes.  A fixed
pure-Python loop, timed next to the work it calibrates, slows with it, so
a time multiplied by REFERENCE_S over the loop's time is steadier across
that drift, and a change to the program still moves it.  The loop fills a
dict and a list of tuples and sorts the list: it allocates and scatters
over a few MB as the program's Python layers do, and on a 2-vCPU Xeon VM
it tracked the program's drift more closely than a loop of integer
arithmetic, which stays in the first-level cache.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_ITERATIONS = 25_000
# the loop's time that calibrated times are scaled to
REFERENCE_S = 0.025


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: the machine's speed at this moment."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    pairs = []
    for i in range(REFERENCE_ITERATIONS):
        key = i * 7919 % 50021
        table[key] = table.get(key, 0.0) + 1.5
        pairs.append((key, float(i)))
    pairs.sort()
    return time.perf_counter() - t0


def calibrated(seconds: float, references: list[float]) -> float:
    """`seconds` at the speed where the reference loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(references)
