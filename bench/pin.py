"""CPU speed on a shared host: a reference loop, and pinning to the faster CPU.

The CPUs of a shared host are not equally fast from one moment to the next:
here either one of the two ran a fixed loop up to 1.5 times slower than the
other, in stretches of a tenth of a second to tens of seconds.  Timed code
calls ``pin_fastest`` just before it starts, so it runs on the CPU that ran
the reference loop fastest a moment earlier, and times the loop again after
it to see how fast that CPU was meanwhile.
"""

import os
import time

CPUS = sorted(os.sched_getaffinity(0))
# reference_s() at full speed on the machine of bench/baseline.json (its
# fastest reading over minutes was 1.02-1.04 ms): a time divided by the
# reference loop's time around it and multiplied by this is the time that
# machine takes at full speed
NOMINAL_REFERENCE_S = 1.0e-3


def reference_s():
    """Fastest of three runs of a fixed pure-Python loop (about 1 ms)."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        best = min(best, time.perf_counter() - t)
    return best


def pin_fastest():
    """Pin this process to the fastest allowed CPU; return its reference_s."""
    timings = []
    for cpu in CPUS:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {cpu})
        timings.append((reference_s(), cpu))
    best, cpu = min(timings)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {cpu})
    return best
