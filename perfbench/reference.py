"""A fixed reference workload that tracks the host's speed.

The commands the benchmark times spend most of their time walking
Python objects spread over tens of megabytes, and on a shared host
their speed moves with the load that neighbours put on the memory
system: by up to 1.6 times within minutes.  A tight arithmetic loop
does not see that load, but this workload does: it builds a dict of
300 000 small lists and reads it at random, a working set far larger
than a last-level cache.  Over 30-second windows of a ten-minute
series, the fidelity sweep's median CPU time spread 0.13 between
windows, and 0.06 once divided by this workload's median; divided by
the tight loop it spread 0.21.

This code is part of the benchmark and stays fixed, so the ratio of a
command's CPU time to it moves only when the program does.
"""

from __future__ import annotations

import random
import time

#: CPU seconds the reference takes on the host every normalised time is
#: expressed for; on a shared 2-core x86 virtual machine it took 0.3 to
#: 0.45 s.
NOMINAL_S = 0.35

ENTRIES = 300_000
LOOKUPS = 100_000


def workload() -> float:
    rng = random.Random(1)
    table = {i: [i, float(i)] for i in range(ENTRIES)}
    total = 0.0
    for _ in range(LOOKUPS):
        entry = table[rng.randrange(ENTRIES)]
        entry[0] += 1
        total += entry[1]
    return total


def cpu_s() -> float:
    """CPU seconds of one run of :func:`workload` in this process."""
    start = time.process_time()
    workload()
    return time.process_time() - start


if __name__ == "__main__":
    # Run in a process of its own, so its heap neither stays in the
    # benchmark process nor counts into the peak RSS of its children.
    print(repr(cpu_s()))
