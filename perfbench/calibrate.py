"""A fixed pure-Python reference loop that measures the machine's current speed.

On a shared machine the speed one process gets drifts by 10-20 % over tens
of seconds. The benchmark runs this loop just before and just after each
timed child and scales the child's wall time to a machine on which the loop
takes NOMINAL_S seconds. On a 2-vCPU VM this cut the variation of 35 s
medians of `quorumsim run` wall time from 10 % to about 2 %. The loop mixes
what the program spends its time on: heap operations on tuples, dict updates
and compact ``json.dumps`` of small dicts. It must never change, or figures
before and after the change stop being comparable.
"""

from __future__ import annotations

import heapq
import json
import random
import time

NOMINAL_S = 0.5
_STEPS = 60_000


def reference_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    rng = random.Random(5)
    heap, totals, lines = [], {}, []
    for i in range(_STEPS):
        heapq.heappush(heap, (rng.random(), i, (i, i % 7)))
        if len(heap) > 64:
            p, j, v = heapq.heappop(heap)
            totals[j % 997] = totals.get(j % 997, 0) + v[1]
            lines.append(json.dumps({"seq": j, "p": p, "v": v[1]}, separators=(",", ":")))
    lines.sort()
    return time.perf_counter() - t0


def to_nominal(seconds: float, before: float, after: float) -> float:
    """Scale a wall time measured between two reference passes to the nominal machine."""
    return seconds * 2 * NOMINAL_S / (before + after)
