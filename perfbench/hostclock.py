"""A fixed pure-Python kernel timed between operations, to factor out host speed.

On a shared host the same replay can take 1.5x longer a few minutes later
because neighbours load the machine, and that drift swamps anything a code
change does.  The kernel below does the kind of work the simulator does (a
heap of events, dict lookups, small-object updates, float arithmetic) but
none of the simulator's code, so a change to the program never changes its
time.  Sampled between the operations of a run, its median time tracks how
fast the host ran that run (``factor``: median / ``REFERENCE_S``).

The simulator is less sensitive to a loaded host than the kernel, and how
much less depends on the work: a timing is divided by ``factor ** exponent``
with an exponent per workload (``workloads.WORKLOADS``), the least-squares
slope of log raw wall on log factor over 25-33 runs of that workload at
factors 0.84-1.73 on a 2-core 2.1 GHz Xeon VM.  Set-up, one process on one
core for every workload, uses ``SETUP_EXPONENT`` (slopes 0.39-0.89).
Dividing by the factor itself over-corrected and left up to a 22% spread
between runs.  The scaling is a property of the host, never of the program:
a change that makes the simulator faster moves the scaled figures by the
same share as the raw ones.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List

#: Time of one ``kernel()`` call on the reference host (an idle 2.1 GHz Xeon core).
REFERENCE_S = 0.020

#: How set-up time follows the host factor (see above).
SETUP_EXPONENT = 0.5


def kernel(steps: int = 20000) -> float:
    rng = random.Random(12345)
    heap = [(rng.random(), i) for i in range(256)]
    heapq.heapify(heap)
    table: dict = {}
    acc = 0.0
    for i in range(steps):
        t, key = heapq.heappop(heap)
        slot = table.get(key)
        if slot is None:
            slot = table[key] = {"n": 0, "s": 0.0}
        slot["n"] += 1
        slot["s"] += t * 1.5 + 0.25
        acc += slot["s"] / slot["n"]
        heapq.heappush(heap, (t + rng.random(), (key * 31 + i) % 512))
    return acc


class HostClock:
    """Samples ``kernel()`` times; ``factor()`` is how much slower than the reference the host ran."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, budget_s: float, at_least: int = 2) -> None:
        """Time kernel calls for about ``budget_s`` seconds (at least ``at_least`` calls)."""
        start = time.perf_counter()
        calls = 0
        while calls < at_least or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
            calls += 1

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S
